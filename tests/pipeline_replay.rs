//! Trace replay through the pipelined dispatcher.
//!
//! The checked-in `tests/fixtures/triangle_count_trace.json` capture is
//! replayed into runtimes with different issue-queue configurations:
//!
//! * at **depth 1** (the default) the scoreboarded queue degenerates to the
//!   serial cost model, so the replayed statistics are the recorded run's
//!   serial statistics — makespan equal to the serial work total, zero
//!   dependence stall, and deterministic across replays;
//! * at **depth > 1** the same instruction stream overlaps across virtual
//!   vault lanes: every work counter (cycles per unit, energy, per-opcode
//!   counts) is conserved exactly, while the makespan drops below the serial
//!   total because triangle counting's counting intersections are mutually
//!   independent.
//!
//! This pins the property that lets the issue-queue work ride on the existing
//! fixture: pipelining changes *when* instructions execute, never *what* they
//! cost or compute.

mod common;

use common::{read_fixture, TraceFixture};
use sisa::core::{ExecStats, Interpreter, SetEngine, SisaConfig, SisaRuntime};

fn load_trace() -> TraceFixture {
    read_fixture()
}

/// Replays the fixture into a fresh runtime with the given configuration.
fn replay_with(config: SisaConfig, fixture: &TraceFixture) -> SisaRuntime {
    let mut rt = SisaRuntime::new(config);
    let report = Interpreter::replay(&fixture.trace, &mut rt);
    assert!(report.complete, "the fixture is a complete capture");
    rt
}

/// Strips the timing view (makespan, dependence stalls) off a statistics
/// record, leaving only the serial work counters.
fn work_only(stats: &ExecStats) -> ExecStats {
    let mut work = *stats;
    work.makespan_cycles = 0;
    work.dep_stall_cycles = 0;
    work.dep_stall_by_opcode.clear();
    work
}

#[test]
fn depth_one_replay_reproduces_the_recorded_serial_stats() {
    let fixture = load_trace();
    let serial = replay_with(SisaConfig::default(), &fixture);
    // The replayed run is the recorded run: instruction-for-instruction.
    assert_eq!(
        serial.stats().total_instructions(),
        fixture.expected_instructions
    );
    assert_eq!(serial.live_sets() as u64, fixture.expected_live_sets);
    // Depth 1 is the serial cost model: the overlapped timeline collapses
    // onto the serial work total and no hazard is ever exposed.
    assert_eq!(
        serial.stats().makespan_cycles,
        serial.stats().total_cycles()
    );
    assert_eq!(serial.stats().dep_stall_cycles, 0);
    assert!(serial.stats().dep_stall_by_opcode.is_empty());
    // And it is deterministic, cycle for cycle including energy.
    let again = replay_with(SisaConfig::default(), &fixture);
    assert_eq!(again.stats(), serial.stats());
}

#[test]
fn pipelined_replay_conserves_work_and_shrinks_the_makespan() {
    let fixture = load_trace();
    let serial = replay_with(SisaConfig::default(), &fixture);
    for (depth, lanes) in [(2usize, 2usize), (8, 4), (16, 16)] {
        let deep = replay_with(SisaConfig::with_pipeline(depth, lanes), &fixture);
        // The pipelined dispatcher executes the identical instruction stream
        // at the identical work cost — only the schedule changes.
        assert_eq!(
            work_only(deep.stats()),
            work_only(serial.stats()),
            "work must be conserved at depth {depth} x {lanes} lanes"
        );
        assert_eq!(deep.live_sets(), serial.live_sets());
        assert!(
            deep.stats().makespan_cycles <= serial.stats().makespan_cycles,
            "overlap can only shorten the schedule (depth {depth} x {lanes})"
        );
    }
    // With real lane parallelism the triangle count's independent counting
    // intersections genuinely overlap: the makespan drops strictly below the
    // serial work total and the exposed hazards are attributed.
    let overlapped = replay_with(SisaConfig::with_pipeline(8, 4), &fixture);
    assert!(
        overlapped.stats().makespan_cycles < serial.stats().total_cycles(),
        "expected strict overlap: {} !< {}",
        overlapped.stats().makespan_cycles,
        serial.stats().total_cycles()
    );
    assert!(overlapped.stats().overlap_speedup() > 1.0);
}
