//! Every dataset stand-in at seed 1, pinned by a digest of its CSR arrays.
//!
//! The generators promise one graph per seed, and the figures, the
//! benchmark's answers and the service's cached results all assume it. A
//! faster generator must draw the same random numbers in the same order and
//! map them to the same edges, so these digests must not move when one is
//! rewritten. `bn-flyMedulla`'s digest is the one taken after
//! `barabasi_albert` stopped iterating a `HashSet` of targets (before that
//! its graph changed from run to run); every other digest was taken before
//! the generators were made linear-time.

use sisa_graph::{datasets, CsrGraph};

/// FNV-1a over the CSR arrays: `offsets` (as `u64`) and then `targets` (as
/// `u32`), little-endian.
fn digest(g: &CsrGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut offset = 0u64;
    eat(&offset.to_le_bytes());
    for v in g.vertices() {
        offset += g.degree(v) as u64;
        eat(&offset.to_le_bytes());
    }
    for v in g.vertices() {
        for &w in g.neighbors(v) {
            eat(&w.to_le_bytes());
        }
    }
    h
}

/// `(name, digest of datasets::by_name(name).generate(1))`, in `all()` order.
const DIGESTS: [(&str, u64); 26] = [
    ("bio-SC-GT", 0xb4bd_226d_1f89_5ac2),
    ("bn-flyMedulla", 0xc67b_8a0a_1db1_2203),
    ("bn-mouse", 0x8b32_4588_203d_c7a6),
    ("int-antCol3-d1", 0x0c66_d79d_08d0_5280),
    ("int-antCol5-d1", 0xbcc2_3582_cc02_cc2a),
    ("int-antCol6-d2", 0x82fe_bc3e_0e53_5067),
    ("bio-CE-PG", 0x5565_fadc_fcc6_9147),
    ("bio-DM-CX", 0x74fd_593c_5f4e_455a),
    ("bio-DR-CX", 0x3ca4_c5e5_ac6e_65bb),
    ("bio-HS-LC", 0x3138_b512_5405_53bc),
    ("bio-SC-HT", 0x27a1_8961_c138_1477),
    ("bio-WormNetB3", 0x5f0f_710a_f29e_adf6),
    ("dimacs-c500-9", 0x27a8_d1b6_96e2_3cfb),
    ("econ-beacxc", 0x63ec_503a_3f63_30ec),
    ("econ-beaflw", 0x64eb_6a0b_2bca_a1cf),
    ("econ-mbeacxc", 0x654d_0711_5f68_021f),
    ("econ-orani678", 0x828d_8903_ff36_4c71),
    ("int-HosWardProx", 0x9a16_2736_aa09_1dcf),
    ("intD-antCol4", 0xbe5b_913b_b9e3_4ae7),
    ("soc-fbMsg", 0xc0ad_01e2_e649_af19),
    ("bio-humanGene", 0xed81_c118_e7c5_379a),
    ("bio-mouseGene", 0xb666_aaeb_3527_531a),
    ("edit-enwiktionary", 0x2673_d368_f767_2b41),
    ("int-dating", 0xe20a_3eb7_215e_a1ec),
    ("sc-pwtk", 0xc77f_9c6c_4b8d_a8ee),
    ("soc-orkut", 0x75ce_f125_e7be_107d),
];

#[test]
fn every_standin_at_seed_1_has_its_pinned_csr_arrays() {
    let got: Vec<(&str, u64)> = datasets::all()
        .iter()
        .map(|spec| (spec.name, digest(&spec.generate(1))))
        .collect();
    assert_eq!(got, DIGESTS);
}
