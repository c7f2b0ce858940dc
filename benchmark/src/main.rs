//! The repo benchmark. One invocation runs one workload in this process:
//!
//! ```text
//! sisa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--out <dir>] [--check <pins.json>]
//! sisa-benchmark compare <a.json> <b.json>
//! sisa-benchmark pins <out-dir>
//! ```
//!
//! It prints every metric by name with its unit and, as the last line of its
//! standard output, one JSON object `{correct, attempted, failed, metrics}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, and a span
//! file is written. See README.md.

mod host;
mod layers;
mod loadgen;
mod metrics;
mod mine;
mod probe;
mod schedule;
mod serve;
mod spans;
mod stats;

use metrics::{json_number, MetricDef, Values, END_TO_END, PER_LAYER};
use serde::Content;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, with why each exists (the same lines as `BENCHMARK.json`).
const WORKLOADS: [&str; 4] = ["mine-sparse", "mine-dense", "serve-hot", "serve-stream"];

/// What one run was asked to do.
pub struct RunArgs {
    /// The workload's name.
    pub workload: String,
    /// Feeds the graph generators and the request schedules, nothing else.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics, span file).
    pub trace: bool,
    /// Where span and result files go.
    pub out_dir: PathBuf,
}

/// What one run found.
pub struct Outcome {
    /// Jobs, queries and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that errored, were rejected, went missing or
    /// answered wrongly.
    pub failed: u64,
    /// The metric values.
    pub values: Values,
    /// Counts and settings printed beside the metrics.
    pub notes: Vec<String>,
}

/// Attempts and failures of a run. A wrong answer is counted and reported,
/// never a panic.
#[derive(Default)]
pub struct Tally {
    /// Jobs, queries and checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt; when it is not `ok`, counts the failure and
    /// prints `what` (for the first few).
    pub fn note(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("failed: {}", what());
            }
        }
    }
}

fn usage() -> String {
    format!(
        "usage: sisa-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--check <pins.json>]\n       sisa-benchmark compare <a.json> <b.json>\n       sisa-benchmark pins <out-dir>",
        WORKLOADS.join("|")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("pins") => pins(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut pins = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            "--out" => out_dir = PathBuf::from(value()?),
            "--check" => pins = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let run_args = RunArgs {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        out_dir,
    };
    if workload.starts_with("serve-") {
        serve::refuse_small_machines()?;
    }
    // What the machine offers, asked before the process gives most of it up.
    let provenance = host::Provenance::collect();
    // One hardware thread for the whole process, so that where the kernel
    // puts a thread is not part of the measurement.
    let pinned = host::pin_to_one_cpu();
    let outcome = match workload.as_str() {
        "mine-sparse" => mine::run(&mine::SPARSE, &run_args),
        "mine-dense" => mine::run(&mine::DENSE, &run_args),
        "serve-hot" => serve::run_hot(&run_args),
        _ => serve::run_stream(&run_args),
    };
    let table = if trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0 && outcome.attempted > 0;

    println!(
        "# {workload}, seed {seed}, {seconds} s, trace {}, {}",
        u8::from(trace),
        pinned.map_or_else(
            || "not pinned".to_string(),
            |cpu| format!("pinned to cpu {cpu}")
        )
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {}, failed {}, failed share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    print!("{}", outcome.values.table_text(table));

    let pins_hold = match &pins {
        Some(path) => check_pins(path, &workload, seed, &outcome.values)?,
        None => true,
    };
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.values.json_object(table)
    );
    write_result_file(&run_args, &provenance, &outcome, &result);
    println!("{result}");
    Ok(correct && pins_hold)
}

/// Writes the result line and the run's provenance into the out directory.
fn write_result_file(
    args: &RunArgs,
    provenance: &host::Provenance,
    outcome: &Outcome,
    result: &str,
) {
    let path = args.out_dir.join(format!(
        "result-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|n| format!("\"{}\"", host::escape(n)))
        .collect();
    let doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},\"settings\":[{}],\"result\":{result}}}\n",
        args.workload,
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        provenance.json_fields(),
        notes.join(",")
    );
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn read_json(path: &Path) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn number(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// The exactness gate: every exact metric the run produced must equal the
/// value pinned for this workload and seed, bit for bit.
fn check_pins(path: &Path, workload: &str, seed: u64, values: &Values) -> Result<bool, String> {
    let doc = read_json(path)?;
    let pinned_seed = doc.get("seed").and_then(number);
    if pinned_seed != Some(seed as f64) {
        return Err(format!(
            "{} pins seed {pinned_seed:?}; run --check with that seed",
            path.display()
        ));
    }
    let Some(pins) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return Err(format!("{} has no pins for {workload}", path.display()));
    };
    let mut ok = true;
    for def in PER_LAYER.iter().filter(|d| d.exact) {
        let got = values.get(def.name);
        match pins.get(def.name).and_then(number) {
            Some(want) if want.to_bits() == got.to_bits() => {}
            Some(want) => {
                ok = false;
                println!("# PIN MISMATCH {}: pinned {want}, got {got}", def.name);
            }
            None => {
                ok = false;
                println!("# PIN MISSING {}: got {got}", def.name);
            }
        }
    }
    println!(
        "# exactness gate: {}",
        if ok { "every pin holds" } else { "FAILED" }
    );
    Ok(ok)
}

/// `pins <out-dir>`: prints the pins document (`benchmark/pins.json`) from
/// the traced result files of one seed in `<out-dir>`.
fn pins(args: &[String]) -> Result<bool, String> {
    let [dir] = args else {
        return Err(usage());
    };
    let mut seed = None;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let path = Path::new(dir).join(format!("result-{workload}-trace1.json"));
        let doc = read_json(&path)?;
        let run_seed = doc.get("seed").and_then(number);
        if *seed.get_or_insert(run_seed) != run_seed {
            return Err(format!("{} is of another seed", path.display()));
        }
        let fields: Vec<String> = PER_LAYER
            .iter()
            .filter(|d| d.exact)
            .map(|d| {
                let value = doc
                    .get("result")
                    .and_then(|r| r.get("metrics"))
                    .and_then(|m| m.get(d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(number)
                    .ok_or_else(|| format!("{} has no {}", path.display(), d.name))?;
                Ok(format!("      \"{}\": {}", d.name, json_number(value)))
            })
            .collect::<Result<_, String>>()?;
        workloads.push(format!(
            "    \"{workload}\": {{\n{}\n    }}",
            fields.join(",\n")
        ));
    }
    println!(
        "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}",
        json_number(seed.flatten().unwrap_or(0.0)),
        workloads.join(",\n")
    );
    Ok(true)
}

/// `compare a.json b.json`: two result files of one workload agree when
/// every end-to-end metric of `b` is no worse than `a` by more than its
/// bound, neither run failed anything, and every exact metric is identical.
fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(usage());
    };
    let (a, b) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    let metrics = |doc: &Content, name: &str| -> Option<f64> {
        doc.get("result")?
            .get("metrics")?
            .get(name)?
            .get("value")
            .and_then(number)
    };
    let failed = |doc: &Content| {
        doc.get("result")
            .and_then(|r| r.get("failed"))
            .and_then(number)
    };
    let mut ok = true;
    if failed(&a) != Some(0.0) || failed(&b) != Some(0.0) {
        ok = false;
        println!("FAILED requests: {:?} and {:?}", failed(&a), failed(&b));
    }
    let check = |def: &MetricDef, ok: &mut bool| {
        let (Some(x), Some(y)) = (metrics(&a, def.name), metrics(&b, def.name)) else {
            return;
        };
        let verdict = if def.exact {
            x.to_bits() == y.to_bits()
        } else if let Some(bound) = def.bound {
            let worse = if def.better == "lower" {
                y / x - 1.0
            } else {
                1.0 - y / x
            };
            worse <= bound
        } else {
            true
        };
        if !verdict {
            *ok = false;
        }
        if !verdict || def.bound.is_some() {
            println!(
                "{:<8} {:<40} {:>16} {:>16} {}",
                if verdict { "ok" } else { "DIFFERS" },
                def.name,
                json_number(x),
                json_number(y),
                def.unit
            );
        }
    };
    for def in END_TO_END.iter().chain(PER_LAYER) {
        check(def, &mut ok);
    }
    Ok(ok)
}
