//! Property tests for the discrete-event substrate.

use dsim::{Calendar, DashSpec, IpscSpec, ProcClock, SimDuration, SimTime, TimeKind};
use proptest::prelude::*;

proptest! {
    /// Events pop in non-decreasing time order, FIFO within a timestamp,
    /// and every scheduled event is delivered exactly once.
    #[test]
    fn calendar_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut seen = vec![false; times.len()];
        let mut count = 0;
        while let Some((t, i)) = cal.pop() {
            prop_assert!(t >= last.0, "time went backwards");
            if t == last.0 && count > 0 {
                prop_assert!(i > last.1, "FIFO violated within a timestamp");
            }
            prop_assert!(!seen[i], "event delivered twice");
            seen[i] = true;
            prop_assert_eq!(t, SimTime(times[i]));
            last = (t, i);
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// A processor's occupancy is the sum of everything charged to it, and
    /// jobs on one processor never overlap.
    #[test]
    fn proc_clock_serializes(jobs in prop::collection::vec((0u64..100, 1u64..50), 1..100)) {
        let mut pc = ProcClock::new(1);
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        for &(now, dur) in &jobs {
            let end = pc.occupy(0, SimTime(now), SimDuration(dur), TimeKind::App);
            prop_assert!(end.0 >= prev_end.0 + dur || prev_end == SimTime::ZERO,
                "job overlapped the previous one");
            prop_assert!(end.0 >= now + dur);
            prev_end = end;
            total += dur;
        }
        prop_assert_eq!(pc.usage(0).app, SimDuration(total));
        prop_assert_eq!(pc.horizon(), prev_end);
    }

    /// Message time is monotone in payload size and never below the
    /// minimum short-message latency.
    #[test]
    fn ipsc_message_time_monotone(a in 0usize..1_000_000, b in 0usize..1_000_000,
                                  src in 0usize..32, dst in 0usize..32) {
        let m = IpscSpec::paper(32);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let tl = m.message_time(lo, src, dst);
        let th = m.message_time(hi, src, dst);
        prop_assert!(tl <= th);
        prop_assert!(tl.as_secs_f64() >= 47e-6);
    }

    /// DASH transfer costs are ordered by hit level for any size.
    #[test]
    fn dash_costs_ordered(bytes in 1usize..1_000_000) {
        use dsim::DashHit::*;
        let m = DashSpec::paper(32);
        let clean = m.transfer_time(bytes, RemoteClean);
        let dirty = m.transfer_time(bytes, RemoteDirty);
        prop_assert!(SimDuration::ZERO < clean && clean <= dirty);
    }

    /// Broadcast beats serial distribution for any payload once there are
    /// enough receivers.
    #[test]
    fn broadcast_beats_serial_sends(bytes in 1usize..500_000) {
        let m = IpscSpec::paper(32);
        let serial = m.message_time(bytes, 0, 1).as_secs_f64() * 31.0;
        let bcast = m.broadcast_time(bytes).as_secs_f64();
        prop_assert!(bcast < serial, "bcast {bcast} vs serial {serial}");
    }
}
