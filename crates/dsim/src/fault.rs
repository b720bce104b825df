//! Seeded, deterministic fault injection for the simulated machines.
//!
//! A [`FaultPlan`] describes *what can go wrong* — per-message drop /
//! duplication / delay / reorder probabilities, transient processor
//! stalls, fail-stop processor death, and (for the threaded backend)
//! task-body panics. A [`FaultInjector`] turns a plan plus a seed into a
//! reproducible stream of fault decisions: the same plan and seed always
//! produce the same faults at the same points in the event stream, so a
//! faulty run is exactly as replayable as a fault-free one.
//!
//! Two decision styles are offered:
//!
//! * **Sequential** ([`FaultInjector::message_fate`], [`FaultInjector::stall`])
//!   for the discrete-event simulators, whose event loops visit decision
//!   points in a deterministic order.
//! * **Keyed** ([`FaultPlan::task_fails`]) for `jade-threads`, where OS
//!   scheduling makes the *order* of decision points nondeterministic:
//!   the decision is a pure hash of `(seed, task, attempt)`, so which
//!   tasks panic is independent of thread interleaving.
//!
//! Probabilities are plain `f64`s in `[0, 1]`; durations are virtual
//! [`SimDuration`]s. Plans parse from a compact spec string (see
//! [`FaultPlan::parse`]), the format used by `repro --faults`.

use crate::time::SimDuration;

/// Default extra-latency window when `delay=`/`reorder=` give no duration
/// (500 µs — a few network round trips on the simulated machines).
const DEFAULT_WINDOW_S: f64 = 0.0005;

/// Declarative description of the faults to inject into a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a data message is lost in transit.
    pub drop_p: f64,
    /// Probability that a delivered message arrives twice.
    pub dup_p: f64,
    /// Probability that a delivered message is delayed by up to [`Self::delay`].
    pub delay_p: f64,
    /// Maximum extra latency added by a delay fault.
    pub delay: SimDuration,
    /// Probability that a message is reordered (extra latency up to
    /// [`Self::reorder_window`], enough to overtake later sends).
    pub reorder_p: f64,
    /// Latency window used for reorder faults.
    pub reorder_window: SimDuration,
    /// Probability that a processor stalls before starting a task.
    pub stall_p: f64,
    /// Duration of one transient stall.
    pub stall: SimDuration,
    /// Fail-stop: this processor dies at [`Self::fail_at`] and never recovers.
    pub fail_proc: Option<usize>,
    /// Virtual time (offset from start) of the fail-stop event.
    pub fail_at: SimDuration,
    /// Probability that a task body panics on a given attempt
    /// (`jade-threads` only; keyed, see [`Self::task_fails`]).
    pub panic_p: f64,
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// Checkpoint interval for the recovery layer: the runtime snapshots
    /// its state every `checkpoint` of virtual time (the thread backends
    /// validate and ignore it). `None` disables checkpointing; fail-stop
    /// recovery then falls back to the full charged-restore path.
    pub checkpoint: Option<SimDuration>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, zero injector overhead.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay: SimDuration::ZERO,
            reorder_p: 0.0,
            reorder_window: SimDuration::ZERO,
            stall_p: 0.0,
            stall: SimDuration::ZERO,
            fail_proc: None,
            fail_at: SimDuration::ZERO,
            panic_p: 0.0,
            seed: 0,
            checkpoint: None,
        }
    }

    /// Does this plan inject anything at all? Fault-free runs take no
    /// injector draws, so their event streams are byte-identical to runs
    /// on a build without fault injection.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.delay_p > 0.0
            || self.reorder_p > 0.0
            || self.stall_p > 0.0
            || self.fail_proc.is_some()
            || self.panic_p > 0.0
    }

    /// Replace the seed (used by `--fault-seed`).
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Replace the checkpoint interval (used by `--checkpoint-interval`).
    pub fn with_checkpoint(mut self, interval: SimDuration) -> FaultPlan {
        self.checkpoint = Some(interval);
        self
    }

    /// Longest admissible latency-class duration (`delay`, `reorder`,
    /// `stall`): one virtual hour. These feed multiplied arithmetic (the
    /// fetch retry backoff scales the delay window by up to 2048×), so an
    /// unbounded value would overflow the picosecond clock mid-run; an hour
    /// of *extra message latency* is already far beyond anything physical.
    pub const MAX_LATENCY: SimDuration = SimDuration(3_600 * crate::time::PS_PER_SEC);

    /// Longest admissible schedule-class duration (`fail_at`, `ckpt`): a
    /// million virtual seconds, ~50× the longest run in the paper (String,
    /// ~20,000 s). Keeps `t + interval` rescheduling far from the u64
    /// picosecond limit.
    pub const MAX_SCHEDULE: SimDuration = SimDuration(1_000_000 * crate::time::PS_PER_SEC);

    /// Check that every probability is in `[0, 1]`, every duration is
    /// within its admissible bound (so no downstream virtual-time
    /// arithmetic can overflow), and the checkpoint interval, if any, is
    /// positive.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop", self.drop_p),
            ("dup", self.dup_p),
            ("delay", self.delay_p),
            ("reorder", self.reorder_p),
            ("stall", self.stall_p),
            ("panic", self.panic_p),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("fault plan: {name} probability {p} not in [0, 1]"));
            }
        }
        for (name, d) in [
            ("delay", self.delay),
            ("reorder", self.reorder_window),
            ("stall", self.stall),
        ] {
            if d > Self::MAX_LATENCY {
                return Err(format!(
                    "fault plan: {name} duration {d:?} exceeds the {:?} limit",
                    Self::MAX_LATENCY
                ));
            }
        }
        for (name, d) in [("fail_at", Some(self.fail_at)), ("ckpt", self.checkpoint)] {
            if let Some(d) = d {
                if d > Self::MAX_SCHEDULE {
                    return Err(format!(
                        "fault plan: {name} {d:?} exceeds the {:?} limit",
                        Self::MAX_SCHEDULE
                    ));
                }
            }
        }
        if let Some(interval) = self.checkpoint {
            if interval == SimDuration::ZERO {
                return Err("fault plan: checkpoint interval must be > 0".to_string());
            }
        }
        Ok(())
    }

    /// Parse the compact spec string used by `repro --faults`.
    ///
    /// Comma-separated `key=value` entries:
    ///
    /// ```text
    /// drop=P           lose each data message with probability P
    /// dup=P            duplicate each delivered message with probability P
    /// delay=P[:SECS]   delay messages with probability P, up to SECS extra
    /// reorder=P[:SECS] reorder messages (extra latency window SECS)
    /// stall=P[:SECS]   stall a processor for SECS before a task start
    /// fail=PROC[@SECS] processor PROC fail-stops at virtual time SECS
    /// panic=P          task bodies panic with probability P (threads)
    /// seed=N           decision-stream seed
    /// ckpt=SECS        checkpoint the runtime every SECS of virtual time
    /// ```
    ///
    /// Example: `drop=0.05,dup=0.02,stall=0.01:0.005,fail=3@0.5,seed=42`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        let mut seen: Vec<&str> = Vec::new();
        for part in spec.split(',').filter(|s| !s.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}`: expected key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p = v
                    .parse::<f64>()
                    .map_err(|_| format!("fault spec `{part}`: bad probability `{v}`"))?;
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return Err(format!(
                        "fault spec `{part}`: probability `{v}` not in [0, 1]"
                    ));
                }
                Ok(p)
            };
            // Checked seconds→SimDuration: negative, non-finite or
            // overflowing values are parse errors naming the offending
            // entry, never panics.
            let dur = |s: f64| -> Result<SimDuration, String> {
                SimDuration::try_from_secs_f64(s)
                    .ok_or_else(|| format!("fault spec `{part}`: bad duration `{s}`"))
            };
            let prob_dur = |v: &str, default_s: f64| -> Result<(f64, SimDuration), String> {
                let (p, s) = match v.split_once(':') {
                    Some((p, s)) => (
                        prob(p)?,
                        s.parse::<f64>()
                            .map_err(|_| format!("fault spec `{part}`: bad duration `{s}`"))?,
                    ),
                    None => (prob(v)?, default_s),
                };
                Ok((p, dur(s)?))
            };
            // `ckpt` and `checkpoint` are aliases for the same key; a spec
            // naming both (or repeating any key) is ambiguous — one value
            // would silently win — so reject it by canonical name.
            let canonical = if key == "checkpoint" { "ckpt" } else { key };
            if seen.contains(&canonical) {
                return Err(format!("fault spec: duplicate key `{canonical}`"));
            }
            match key {
                "drop" => plan.drop_p = prob(val)?,
                "dup" => plan.dup_p = prob(val)?,
                "delay" => (plan.delay_p, plan.delay) = prob_dur(val, DEFAULT_WINDOW_S)?,
                "reorder" => {
                    (plan.reorder_p, plan.reorder_window) = prob_dur(val, DEFAULT_WINDOW_S)?
                }
                "stall" => (plan.stall_p, plan.stall) = prob_dur(val, DEFAULT_WINDOW_S)?,
                "panic" => plan.panic_p = prob(val)?,
                "ckpt" | "checkpoint" => {
                    let s = val
                        .parse::<f64>()
                        .map_err(|_| format!("fault spec `{part}`: bad interval `{val}`"))?;
                    if s <= 0.0 {
                        return Err(format!("fault spec `{part}`: interval must be > 0"));
                    }
                    plan.checkpoint = Some(dur(s)?);
                }
                "seed" => {
                    plan.seed = val
                        .parse::<u64>()
                        .map_err(|_| format!("fault spec `{part}`: bad seed `{val}`"))?
                }
                "fail" => {
                    let (proc, at_s) = match val.split_once('@') {
                        Some((p, s)) => (
                            p.parse::<usize>()
                                .map_err(|_| format!("fault spec `{part}`: bad proc `{p}`"))?,
                            s.parse::<f64>()
                                .map_err(|_| format!("fault spec `{part}`: bad time `{s}`"))?,
                        ),
                        None => (
                            val.parse::<usize>()
                                .map_err(|_| format!("fault spec `{part}`: bad proc `{val}`"))?,
                            0.0,
                        ),
                    };
                    plan.fail_proc = Some(proc);
                    plan.fail_at = SimDuration::try_from_secs_f64(at_s)
                        .ok_or_else(|| format!("fault spec `{part}`: bad fail time `{at_s}`"))?;
                }
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
            seen.push(canonical);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Keyed panic decision for the threaded backend: a pure hash of
    /// `(seed, task, attempt)`, independent of thread interleaving. Each
    /// retry re-rolls (different `attempt`), so with `panic_p < 1` a task
    /// eventually succeeds.
    pub fn task_fails(&self, task: u64, attempt: u32) -> bool {
        if self.panic_p <= 0.0 {
            return false;
        }
        let mut z = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(task.wrapping_mul(0xD1B54A32D192ED03))
            .wrapping_add((attempt as u64) << 17);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        unit_f64(z) < self.panic_p
    }
}

/// The extra latency of each delivered copy of one message: none (the
/// message was dropped), one, or two (it was duplicated). Held inline — a
/// fate is drawn for every data message, so it must not allocate — and
/// consumed as the iterator it is: `for extra in fate.copies`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Copies {
    first: Option<SimDuration>,
    second: Option<SimDuration>,
}

impl Iterator for Copies {
    type Item = SimDuration;

    #[inline]
    fn next(&mut self) -> Option<SimDuration> {
        self.first.take().or_else(|| self.second.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.first.is_some() as usize + self.second.is_some() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Copies {}

/// The fate the injector assigned to one message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageFate {
    /// Extra latency of each delivered copy. Empty means the message was
    /// dropped; two entries mean it was duplicated.
    pub copies: Copies,
}

impl MessageFate {
    /// The fault-free fate: one copy, no extra latency.
    pub fn delivered() -> MessageFate {
        MessageFate {
            copies: Copies {
                first: Some(SimDuration::ZERO),
                second: None,
            },
        }
    }

    pub fn dropped(&self) -> bool {
        self.copies.len() == 0
    }
}

/// Stateful decision stream for one run: a [`FaultPlan`] plus a SplitMix64
/// generator seeded from it. Counters record what was actually injected so
/// simulators can cross-check their native tallies against the event stream.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    /// Messages dropped so far.
    pub drops: u64,
    /// Messages duplicated so far.
    pub dups: u64,
    /// Messages delayed or reordered so far.
    pub delays: u64,
    /// Stalls injected so far.
    pub stalls: u64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            // Non-zero mix so seed 0 still produces a useful stream.
            state: plan.seed ^ 0x5851_F42D_4C95_7F2D,
            drops: 0,
            dups: 0,
            delays: 0,
            stalls: 0,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any message/stall faults are configured. Inactive injectors
    /// take no draws, keeping fault-free streams bit-identical.
    pub fn active(&self) -> bool {
        self.plan.is_active()
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele et al.): tiny, seedable, good enough for
        // Bernoulli draws, and dependency-free.
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    fn extra_delay(&mut self) -> SimDuration {
        let mut extra = SimDuration::ZERO;
        if self.plan.delay_p > 0.0 && self.next_f64() < self.plan.delay_p {
            self.delays += 1;
            extra += scale(self.plan.delay, self.next_f64());
        }
        if self.plan.reorder_p > 0.0 && self.next_f64() < self.plan.reorder_p {
            self.delays += 1;
            extra += scale(self.plan.reorder_window, self.next_f64());
        }
        extra
    }

    /// Decide the fate of one data message: dropped, delivered once
    /// (possibly late), or delivered twice.
    ///
    /// The draw order is the contract every seeded run's results hang on:
    /// drop; then the first copy's delay and reorder (each a Bernoulli draw,
    /// plus a magnitude draw when it hits); then duplication; then the second
    /// copy's delay and reorder. A probability of zero takes no draw.
    pub fn message_fate(&mut self) -> MessageFate {
        if !self.active() {
            return MessageFate::delivered();
        }
        if self.plan.drop_p > 0.0 && self.next_f64() < self.plan.drop_p {
            self.drops += 1;
            return MessageFate {
                copies: Copies::default(),
            };
        }
        let mut copies = Copies {
            first: Some(self.extra_delay()),
            second: None,
        };
        if self.plan.dup_p > 0.0 && self.next_f64() < self.plan.dup_p {
            self.dups += 1;
            copies.second = Some(self.extra_delay());
        }
        MessageFate { copies }
    }

    /// Decide whether a processor stalls at this decision point, and for
    /// how long.
    pub fn stall(&mut self) -> Option<SimDuration> {
        if self.plan.stall_p > 0.0 && self.next_f64() < self.plan.stall_p {
            self.stalls += 1;
            Some(self.plan.stall)
        } else {
            None
        }
    }
}

/// Map a `u64` to `[0, 1)` using the top 53 bits.
fn unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Scale a duration by a fraction in `[0, 1)` (picosecond-exact).
fn scale(d: SimDuration, frac: f64) -> SimDuration {
    SimDuration((d.0 as f64 * frac) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_bounds_durations() {
        // A latency-class duration past the hour limit is rejected — left
        // unchecked it would overflow the 2048× retry-backoff arithmetic.
        let plan = FaultPlan {
            delay_p: 0.1,
            delay: FaultPlan::MAX_LATENCY + SimDuration(1),
            ..FaultPlan::none()
        };
        assert!(plan.validate().unwrap_err().contains("delay"));
        let plan = FaultPlan {
            stall_p: 0.1,
            stall: FaultPlan::MAX_LATENCY + SimDuration(1),
            ..FaultPlan::none()
        };
        assert!(plan.validate().unwrap_err().contains("stall"));
        // Schedule-class durations get the wider bound.
        let plan = FaultPlan {
            fail_proc: Some(1),
            fail_at: FaultPlan::MAX_SCHEDULE + SimDuration(1),
            ..FaultPlan::none()
        };
        assert!(plan.validate().unwrap_err().contains("fail_at"));
        let plan = FaultPlan {
            checkpoint: Some(FaultPlan::MAX_SCHEDULE + SimDuration(1)),
            ..FaultPlan::none()
        };
        assert!(plan.validate().unwrap_err().contains("ckpt"));
        // At the bounds everything is fine.
        let plan = FaultPlan {
            delay_p: 0.1,
            delay: FaultPlan::MAX_LATENCY,
            fail_proc: Some(1),
            fail_at: FaultPlan::MAX_SCHEDULE,
            checkpoint: Some(FaultPlan::MAX_SCHEDULE),
            ..FaultPlan::none()
        };
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn none_is_inactive() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.message_fate(), MessageFate::delivered());
        assert_eq!(inj.stall(), None);
        assert_eq!(inj.drops + inj.dups + inj.delays + inj.stalls, 0);
    }

    #[test]
    fn certain_duplication_yields_two_copies_and_certain_loss_none() {
        let mut inj = FaultInjector::new(FaultPlan::parse("dup=1,delay=1:0.001,seed=5").unwrap());
        for _ in 0..100 {
            let fate = inj.message_fate();
            assert!(!fate.dropped());
            assert_eq!(fate.copies.len(), 2);
            assert_eq!(fate.copies.count(), 2);
        }
        assert_eq!((inj.drops, inj.dups, inj.delays), (0, 100, 200));
        let mut inj = FaultInjector::new(FaultPlan::parse("drop=1,dup=1,seed=5").unwrap());
        for _ in 0..100 {
            let fate = inj.message_fate();
            assert!(fate.dropped());
            assert_eq!(fate.copies.count(), 0);
        }
        assert_eq!((inj.drops, inj.dups), (100, 0));
    }

    #[test]
    fn inactive_plan_takes_no_draws() {
        // A checkpoint interval and a seed do not make a plan active: the
        // generator must stand where it started after any number of fates.
        let plan = FaultPlan::parse("ckpt=0.5,seed=77").unwrap();
        let mut inj = FaultInjector::new(plan);
        let before = inj.state;
        for _ in 0..100 {
            assert_eq!(inj.message_fate(), MessageFate::delivered());
        }
        assert_eq!(inj.state, before);
        assert_eq!(
            MessageFate::delivered().copies.collect::<Vec<_>>(),
            [SimDuration::ZERO]
        );
    }

    #[test]
    fn parse_full_spec() {
        let plan =
            FaultPlan::parse("drop=0.05,dup=0.02,delay=0.1:0.001,reorder=0.05,stall=0.01:0.005,fail=3@0.5,panic=0.1,seed=42")
                .unwrap();
        assert_eq!(plan.drop_p, 0.05);
        assert_eq!(plan.dup_p, 0.02);
        assert_eq!(plan.delay_p, 0.1);
        assert_eq!(plan.delay, SimDuration::from_secs_f64(0.001));
        assert_eq!(plan.reorder_p, 0.05);
        assert_eq!(
            plan.reorder_window,
            SimDuration::from_secs_f64(DEFAULT_WINDOW_S)
        );
        assert_eq!(plan.stall_p, 0.01);
        assert_eq!(plan.stall, SimDuration::from_secs_f64(0.005));
        assert_eq!(plan.fail_proc, Some(3));
        assert_eq!(plan.fail_at, SimDuration::from_secs_f64(0.5));
        assert_eq!(plan.panic_p, 0.1);
        assert_eq!(plan.seed, 42);
        assert!(plan.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("wat=1").is_err());
        assert!(FaultPlan::parse("fail=a").is_err());
        assert!(FaultPlan::parse("delay=0.1:-1").is_err());
        assert!(FaultPlan::parse("ckpt=0").is_err());
        assert!(FaultPlan::parse("ckpt=-1").is_err());
        assert!(FaultPlan::parse("ckpt=x").is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_entry() {
        // Every malformed entry must come back as an error naming the
        // entry, never a panic — these inputs reach `parse` straight from
        // the `--faults` command line.
        for (spec, needle) in [
            ("ckpt=", "ckpt="),
            ("ckpt=nan", "ckpt=nan"),
            ("drop=-0.5", "drop=-0.5"),
            ("drop=inf", "drop=inf"),
            ("panic=two", "panic=two"),
            ("delay=0.1:huge", "delay=0.1:huge"),
            ("seed=-1", "seed=-1"),
            ("fail=1@-2", "fail=1@-2"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(
                err.contains(needle),
                "`{spec}` error `{err}` lacks `{needle}`"
            );
        }
        // Out-of-range magnitudes used to panic inside the picosecond
        // conversion (`virtual time overflow`); they must error instead.
        for spec in [
            "ckpt=1e30",
            "delay=0.1:1e30",
            "stall=0.1:1e300",
            "fail=1@1e30",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("fault spec"), "`{spec}`: {err}");
        }
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        let err = FaultPlan::parse("drop=0.1,drop=0.2").unwrap_err();
        assert!(err.contains("duplicate key `drop`"), "{err}");
        // `ckpt` and `checkpoint` alias the same key; naming both is a
        // duplicate under the canonical name.
        let err = FaultPlan::parse("ckpt=0.5,checkpoint=1.0").unwrap_err();
        assert!(err.contains("duplicate key `ckpt`"), "{err}");
        let err = FaultPlan::parse("seed=1,drop=0.1,seed=2").unwrap_err();
        assert!(err.contains("duplicate key `seed`"), "{err}");
        // Distinct keys still compose fine.
        assert!(FaultPlan::parse("drop=0.1,dup=0.1,seed=3").is_ok());
    }

    use proptest::prelude::*;

    /// Specs `parse` accepts: the seeds of the single-byte mutations.
    const VALID_SPECS: [&str; 4] = [
        "drop=0.05,dup=0.02,delay=0.1:0.001,reorder=0.05,stall=0.01:0.005,fail=3@0.5,panic=0.1,seed=42",
        "ckpt=0.25",
        "checkpoint=0.25,fail=1@0.1",
        "drop=0.1,dup=0.1,seed=3",
    ];

    /// Pieces of specs, for inputs that get past the first `key=value`.
    const TOKENS: [&str; 24] = [
        "drop",
        "dup",
        "delay",
        "reorder",
        "stall",
        "fail",
        "panic",
        "seed",
        "ckpt",
        "checkpoint",
        "=",
        ",",
        ":",
        "@",
        "0.5",
        "1",
        "0",
        "-1",
        "1e30",
        "nan",
        "inf",
        "3",
        "18446744073709551616",
        "",
    ];

    /// `parse` answers `Ok` or `Err`, and an `Ok` plan passes `validate`.
    fn answers(bytes: &[u8]) {
        if let Ok(plan) = FaultPlan::parse(&String::from_utf8_lossy(bytes)) {
            assert_eq!(plan.validate(), Ok(()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The `--faults` and `ckpt=` parser on anything a command line
        /// can carry: random bytes, valid specs with one byte replaced,
        /// inserted or deleted, and random strings of spec pieces. It
        /// returns, and never panics.
        #[test]
        fn parse_answers_any_input(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
            which in 0..4usize,
            at in any::<u32>(),
            byte in any::<u8>(),
            edit in 0..3u8,
            tokens in prop::collection::vec(0..24usize, 0..16),
        ) {
            answers(&bytes);
            let mut spec = VALID_SPECS[which].as_bytes().to_vec();
            let at = at as usize % spec.len();
            match edit {
                0 => spec[at] = byte,
                1 => spec.insert(at, byte),
                _ => {
                    spec.remove(at);
                }
            }
            answers(&spec);
            let soup: String = tokens.iter().map(|&t| TOKENS[t]).collect();
            answers(soup.as_bytes());
        }
    }

    #[test]
    fn checkpoint_interval_parses_but_is_not_a_fault() {
        let plan = FaultPlan::parse("ckpt=0.25").unwrap();
        assert_eq!(plan.checkpoint, Some(SimDuration::from_secs_f64(0.25)));
        // Checkpointing alone injects nothing: the injector must take no
        // draws, keeping the event stream identical to a fault-free build.
        assert!(!plan.is_active());
        let plan2 = FaultPlan::parse("checkpoint=0.25,fail=1@0.1").unwrap();
        assert_eq!(plan2.checkpoint, plan.checkpoint);
        assert!(plan2.is_active());
        let via_builder = FaultPlan::none().with_checkpoint(SimDuration::from_secs_f64(0.25));
        assert_eq!(via_builder.checkpoint, plan.checkpoint);
        assert!(via_builder.validate().is_ok());
    }

    #[test]
    fn injector_is_deterministic() {
        let plan = FaultPlan::parse("drop=0.2,dup=0.1,delay=0.3,seed=7").unwrap();
        let run = |mut inj: FaultInjector| -> Vec<MessageFate> {
            (0..200).map(|_| inj.message_fate()).collect()
        };
        let a = run(FaultInjector::new(plan));
        let b = run(FaultInjector::new(plan));
        assert_eq!(a, b);
        let c = run(FaultInjector::new(plan.with_seed(8)));
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn fate_frequencies_track_probabilities() {
        let plan = FaultPlan::parse("drop=0.2,dup=0.1,seed=1").unwrap();
        let mut inj = FaultInjector::new(plan);
        let n = 10_000;
        for _ in 0..n {
            inj.message_fate();
        }
        let drop_rate = inj.drops as f64 / n as f64;
        assert!((drop_rate - 0.2).abs() < 0.02, "drop rate {drop_rate}");
        // dup is drawn only for non-dropped messages.
        let dup_rate = inj.dups as f64 / (n - inj.drops) as f64;
        assert!((dup_rate - 0.1).abs() < 0.02, "dup rate {dup_rate}");
    }

    #[test]
    fn keyed_task_failure_is_pure() {
        let plan = FaultPlan::parse("panic=0.3,seed=11").unwrap();
        let fails: Vec<bool> = (0..64).map(|t| plan.task_fails(t, 0)).collect();
        assert!(fails.iter().any(|&f| f), "some task should fail");
        assert!(fails.iter().any(|&f| !f), "some task should succeed");
        for t in 0..64u64 {
            assert_eq!(plan.task_fails(t, 0), fails[t as usize]);
        }
        // Retries re-roll: a failing task must eventually pass.
        for t in 0..64u64 {
            assert!((0..64).any(|a| !plan.task_fails(t, a)));
        }
    }

    #[test]
    fn stalls_use_plan_duration() {
        let plan = FaultPlan::parse("stall=1.0:0.002,seed=3").unwrap();
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.stall(), Some(SimDuration::from_secs_f64(0.002)));
        assert_eq!(inj.stalls, 1);
    }
}
