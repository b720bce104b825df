//! # Self-tuning feedback controller (DESIGN.md §19)
//!
//! Every backend reconstructs the paper's counters bit-for-bit from the
//! event layer; this module is the consumer that closes the loop from
//! *metrics* back to *policy*. A [`Controller`] turns deterministic
//! observations (retired-version access width, measured virtual checkpoint
//! capture cost, plan-derived failure horizons) into the iPSC simulator's
//! knob settings:
//!
//! * the iPSC communicator's **adaptive-broadcast evidence margin** (extra
//!   evidence demanded on top of the §3.4.2 drop-rate break-even before an
//!   object flips into broadcast mode);
//! * the iPSC simulator's **checkpoint interval** (aim the next capture
//!   one measured-capture-cost guard ahead of the fault plan's pending
//!   fail-stop; stretch to the maximum when no failure source remains).
//!
//! **Determinism argument.** Every law below is a pure integer function of
//! inputs that are themselves interleaving-independent: version-width
//! counters are functions of the trace and the seeded fault plan, and
//! capture costs and horizons are *virtual* (simulated picoseconds). No
//! wall-clock reading ever enters a decision, so controller-on runs
//! replay bit-identically and the existing determinism and fault
//! batteries extend over them unchanged.
//!
//! Each decision is recorded in a [`TuneLog`]; [`TuneLog::check_ranges`]
//! asserts that every recorded value stayed inside its documented valid
//! range (the proptest battery runs it over random DAGs × fault plans on
//! the iPSC simulator).

/// Largest extra evidence the controller will stack on top of the
/// drop-rate break-even before an object may flip into broadcast mode.
pub const EVIDENCE_MARGIN_MAX: u32 = 4;
/// Shortest checkpoint interval the controller will schedule: 1 simulated
/// microsecond (1e6 ps). Anything shorter and capture cost dominates even
/// on the paper's smallest configurations.
pub const CKPT_MIN_PS: u64 = 1_000_000;
/// Longest checkpoint interval the controller will schedule: one simulated
/// hour, matching `dsim`'s `MAX_LATENCY` validation bound.
pub const CKPT_MAX_PS: u64 = 3_600_000_000_000_000;

/// Which runtime knob a [`Decision`] set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Knob {
    /// Extra adaptive-broadcast evidence demanded beyond the break-even.
    EvidenceMargin,
    /// iPSC checkpoint re-arm interval (simulated picoseconds).
    CheckpointIntervalPs,
}

impl Knob {
    /// The documented valid range for this knob, inclusive.
    pub fn range(self) -> (u64, u64) {
        match self {
            Knob::EvidenceMargin => (0, EVIDENCE_MARGIN_MAX as u64),
            Knob::CheckpointIntervalPs => (CKPT_MIN_PS, CKPT_MAX_PS),
        }
    }
}

/// One controller decision: a knob and the value it was set to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    pub knob: Knob,
    pub value: u64,
}

/// The ordered log of every decision a [`Controller`] made during a run.
/// Deterministic runs produce identical logs; the proptest battery asserts
/// both that and [`check_ranges`](TuneLog::check_ranges).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TuneLog {
    pub decisions: Vec<Decision>,
}

impl TuneLog {
    /// Record a decision.
    pub fn record(&mut self, knob: Knob, value: u64) {
        self.decisions.push(Decision { knob, value });
    }

    /// Record a decision only if it differs from the last recorded value
    /// for the same knob (keeps per-event re-evaluation logs compact).
    pub fn record_change(&mut self, knob: Knob, value: u64) -> bool {
        let last = self
            .decisions
            .iter()
            .rev()
            .find(|d| d.knob == knob)
            .map(|d| d.value);
        if last == Some(value) {
            return false;
        }
        self.record(knob, value);
        true
    }

    /// Check every recorded decision against its knob's documented range.
    pub fn check_ranges(&self) -> Result<(), String> {
        for d in &self.decisions {
            let (lo, hi) = d.knob.range();
            if d.value < lo || d.value > hi {
                return Err(format!(
                    "{:?} = {} outside documented range [{lo}, {hi}]",
                    d.knob, d.value
                ));
            }
        }
        Ok(())
    }

    /// Absorb another log's decisions (runs that tune several layers
    /// merge their logs for a single range check).
    pub fn absorb(&mut self, other: &TuneLog) {
        self.decisions.extend(other.decisions.iter().copied());
    }
}

/// The feedback controller: pure decision functions over deterministic
/// observations, logging every choice. One controller instance per tuned
/// runtime/simulation; the log survives for range checks and replay
/// comparison.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Controller {
    pub log: TuneLog,
}

impl Controller {
    pub fn new() -> Controller {
        Controller::default()
    }

    /// Extra adaptive-broadcast evidence demanded beyond the §3.4.2
    /// drop-rate break-even, from the live width statistics of retired
    /// versions (`wide` versions were accessed by a strict majority of
    /// live non-owner processors; `narrow` were not).
    ///
    /// Law: when wide versions dominate, broadcasting early is the win —
    /// no margin. The rarer wide versions are, the more evidence a flip
    /// must accumulate, up to [`EVIDENCE_MARGIN_MAX`], because a broadcast
    /// regime entered on a burst pays for every subsequent narrow version.
    /// Two guards keep the ladder honest: below 16 retired versions the
    /// sample is noise, so the paper's break-even stands alone; and the
    /// rung boundaries (1, 1/16, 0) sit well away from the width ratios
    /// real access patterns settle at, so a converged cumulative ratio
    /// does not oscillate across a rung for the rest of the run — a
    /// mid-run margin *raise* is worse than either steady choice, because
    /// it strands objects mid-accumulation in fetch mode.
    pub fn evidence_margin(&mut self, wide: u64, narrow: u64) -> u32 {
        let m = if wide + narrow < 16 || wide >= narrow {
            0
        } else if wide * 16 >= narrow {
            1
        } else if wide > 0 {
            2
        } else {
            EVIDENCE_MARGIN_MAX
        };
        self.log.record_change(Knob::EvidenceMargin, m as u64);
        m
    }

    /// Checkpoint re-arm interval from the *measured* virtual capture cost
    /// of the checkpoint just taken and the **remaining** failure horizon
    /// the active fault plan implies — picoseconds until the next pending
    /// fail-stop, `None` = no remaining failure source.
    ///
    /// Law: a fail-stop whose instant the plan fixes deserves a capture
    /// *aimed at it*, not a cadence averaged over it — Young's
    /// `sqrt(2·C·M)` is the answer to a stochastic MTBF question this
    /// fault model does not ask. The next tick lands one guard interval
    /// (`max(C, CKPT_MIN_PS)`) before the failure, so the snapshot it
    /// takes bounds the re-execution loss by that guard; the result is
    /// floored at the guard so a near-horizon tick chain cannot degenerate
    /// into back-to-back captures. The guard uses the *measured* cost
    /// because capture traffic itself perturbs the run (it rides the same
    /// lossy links as fetches), so every capture avoided is won twice.
    /// With no failure source left the interval pegs to the max: every
    /// further capture is pure overhead.
    pub fn checkpoint_interval_ps(&mut self, capture_cost_ps: u64, horizon_ps: Option<u64>) -> u64 {
        let iv = match horizon_ps {
            None => CKPT_MAX_PS,
            Some(m) => {
                let guard = capture_cost_ps.max(CKPT_MIN_PS);
                m.saturating_sub(guard)
                    .max(guard)
                    .clamp(CKPT_MIN_PS, CKPT_MAX_PS)
            }
        };
        self.log.record_change(Knob::CheckpointIntervalPs, iv);
        iv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_margin_tracks_width_statistics() {
        let mut c = Controller::new();
        // Small samples never raise the margin, whatever their ratio.
        assert_eq!(c.evidence_margin(0, 10), 0);
        assert_eq!(c.evidence_margin(20, 10), 0);
        assert_eq!(c.evidence_margin(4, 60), 1);
        assert_eq!(c.evidence_margin(1, 60), 2);
        assert_eq!(c.evidence_margin(0, 100), EVIDENCE_MARGIN_MAX);
        assert!(c.log.check_ranges().is_ok());
    }

    #[test]
    fn checkpoint_interval_aims_at_the_failure_horizon() {
        let mut c = Controller::new();
        // Far horizon: land one capture-cost guard before the failure.
        let iv = c.checkpoint_interval_ps(1_000_000_000, Some(2_000_000_000_000));
        assert_eq!(iv, 2_000_000_000_000 - 1_000_000_000);
        // No failure source: peg to max.
        assert_eq!(c.checkpoint_interval_ps(1_000_000_000, None), CKPT_MAX_PS);
        // Horizon inside the guard: hold at the guard, never back-to-back
        // faster than a capture takes.
        assert_eq!(
            c.checkpoint_interval_ps(5_000_000, Some(2_000_000)),
            5_000_000
        );
        // Tiny inputs clamp up to the floor.
        assert_eq!(c.checkpoint_interval_ps(1, Some(1)), CKPT_MIN_PS);
        assert!(c.log.check_ranges().is_ok());
    }

    #[test]
    fn log_records_changes_only_when_asked() {
        let mut log = TuneLog::default();
        assert!(log.record_change(Knob::EvidenceMargin, 2));
        assert!(!log.record_change(Knob::EvidenceMargin, 2));
        assert!(log.record_change(Knob::EvidenceMargin, 3));
        assert_eq!(log.decisions.len(), 2);
    }

    #[test]
    fn out_of_range_decision_is_reported_with_the_value() {
        let mut log = TuneLog::default();
        log.record(Knob::EvidenceMargin, 10_000);
        let err = log.check_ranges().unwrap_err();
        assert!(err.contains("10000"), "{err}");
    }
}
