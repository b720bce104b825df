//! Machine descriptions and communication cost models.
//!
//! The constants come straight from the appendices of Rinard, SC'95:
//!
//! * **Stanford DASH** (Appendix B): 33 MHz R3000 processors grouped four to
//!   a cluster; 16-byte coherence lines; read latencies of 1 cycle (L1),
//!   15 cycles (L2), 29 cycles (another cache in the cluster), 101 cycles
//!   (clean in a remote home cluster) and 132 cycles (dirty in a third
//!   cluster). Only the two remote levels are priced ([`DashHit`]); the
//!   in-cluster ones are part of each application's work calibration.
//! * **Intel iPSC/860** (Appendix A): 40 MHz i860 nodes on a circuit-switched
//!   hypercube, 2.8 MB/s per link, 47 µs minimum short-message time.

use crate::time::SimDuration;

/// A processor index within a machine.
pub type ProcId = usize;

/// Where a DASH read that missed in its own cluster was satisfied, cheaper
/// first. A hit inside the cluster costs nothing extra: the per-task work
/// calibration already includes local memory traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DashHit {
    /// Clean copy fetched from the home cluster's memory.
    RemoteClean,
    /// Dirty copy forwarded from a third cluster.
    RemoteDirty,
}

/// Static description of a DASH-like cache-coherent NUMA machine.
#[derive(Clone, Debug)]
pub struct DashSpec {
    /// Total number of processors used by the computation.
    pub procs: usize,
    /// Processors per bus-based cluster (4 on the real machine).
    pub cluster_size: usize,
    /// Processor clock in Hz.
    pub clock_hz: u64,
    /// Coherence line size in bytes.
    pub line_bytes: usize,
    /// Cycles for a clean remote read.
    pub remote_clean_cycles: u64,
    /// Cycles for a dirty remote read (three-hop).
    pub remote_dirty_cycles: u64,
}

impl DashSpec {
    /// The 32-processor configuration used in the paper's experiments.
    pub fn paper(procs: usize) -> DashSpec {
        DashSpec {
            procs,
            cluster_size: 4,
            clock_hz: 33_333_333,
            line_bytes: 16,
            remote_clean_cycles: 101,
            remote_dirty_cycles: 132,
        }
    }

    /// Cluster that processor `p` belongs to.
    #[inline]
    pub fn cluster_of(&self, p: ProcId) -> usize {
        p / self.cluster_size
    }

    /// Number of clusters in use.
    pub fn clusters(&self) -> usize {
        self.procs.div_ceil(self.cluster_size)
    }

    /// Number of coherence lines occupied by an object of `bytes` bytes.
    #[inline]
    pub fn lines(&self, bytes: usize) -> u64 {
        (bytes.div_ceil(self.line_bytes)).max(1) as u64
    }

    /// Time to move `bytes` of shared data from another cluster.
    pub fn transfer_time(&self, bytes: usize, hit: DashHit) -> SimDuration {
        let cycles_per_line = match hit {
            DashHit::RemoteClean => self.remote_clean_cycles,
            DashHit::RemoteDirty => self.remote_dirty_cycles,
        };
        SimDuration::from_cycles(self.lines(bytes) * cycles_per_line, self.clock_hz)
    }
}

/// Static description of an iPSC/860-like message-passing hypercube.
#[derive(Clone, Debug)]
pub struct IpscSpec {
    /// Total number of processors used by the computation.
    pub procs: usize,
    /// Link bandwidth in bytes per second (2.8 MB/s on the real machine).
    pub link_bandwidth: f64,
    /// Minimum time for a short message, seconds (47 µs measured in the
    /// paper). Charged on every message as fixed overhead.
    pub message_latency_s: f64,
    /// Extra per-hop circuit set-up time, seconds. The network is
    /// circuit-switched so distance contributes only a tiny set-up cost.
    pub per_hop_s: f64,
}

impl IpscSpec {
    /// The configuration used in the paper's experiments.
    pub fn paper(procs: usize) -> IpscSpec {
        IpscSpec {
            procs,
            link_bandwidth: 2.8e6,
            message_latency_s: 47e-6,
            per_hop_s: 1e-6,
        }
    }

    /// Hypercube dimension needed for `procs` nodes.
    pub fn dimension(&self) -> u32 {
        hypercube_dimension(self.procs)
    }

    /// Number of hops between two nodes (Hamming distance of the labels).
    #[inline]
    pub fn hops(&self, a: ProcId, b: ProcId) -> u32 {
        (a ^ b).count_ones()
    }

    /// Time for a point-to-point message of `bytes` payload from `src` to
    /// `dst`. The sender is busy for this whole time (NX/2 sends are
    /// synchronous enough that the paper charges the main processor for the
    /// full serial distribution of an object, Section 5.3).
    pub fn message_time(&self, bytes: usize, src: ProcId, dst: ProcId) -> SimDuration {
        let hops = if src == dst {
            0
        } else {
            self.hops(src, dst).max(1)
        };
        let secs = self.message_latency_s
            + self.per_hop_s * hops as f64
            + bytes as f64 / self.link_bandwidth;
        SimDuration::from_secs_f64(secs)
    }

    /// Time for a spanning-tree broadcast of `bytes` from one node to all
    /// `procs` nodes: `ceil(log2 procs)` store-and-forward stages, each one
    /// message time long. Matches the paper's measurement of 0.31 s to
    /// broadcast a 166 KB object to 32 processors (5 stages × ~62 ms).
    pub fn broadcast_time(&self, bytes: usize) -> SimDuration {
        let stages = hypercube_dimension(self.procs).max(1);
        let per_stage =
            self.message_latency_s + self.per_hop_s + bytes as f64 / self.link_bandwidth;
        SimDuration::from_secs_f64(per_stage * stages as f64)
    }

    /// The portion of a broadcast for which the *initiating* node is busy:
    /// it sends to each of its children in the spanning tree. The root of a
    /// binomial tree sends `dimension` messages, but successive sends overlap
    /// with the subtree forwarding; the paper's data (main-processor delay of
    /// roughly one message time) is matched by charging the root one send.
    pub fn broadcast_root_busy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(
            self.message_latency_s + self.per_hop_s + bytes as f64 / self.link_bandwidth,
        )
    }
}

/// Smallest `d` with `2^d >= procs`.
pub fn hypercube_dimension(procs: usize) -> u32 {
    assert!(procs >= 1, "machine must have at least one processor");
    (procs.next_power_of_two()).trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dash_clusters() {
        let m = DashSpec::paper(32);
        assert_eq!(m.clusters(), 8);
        assert_eq!(m.cluster_of(0), 0);
        assert_eq!(m.cluster_of(3), 0);
        assert_eq!(m.cluster_of(4), 1);
        assert_eq!(m.cluster_of(31), 7);
    }

    #[test]
    fn dash_lines_rounds_up() {
        let m = DashSpec::paper(4);
        assert_eq!(m.lines(1), 1);
        assert_eq!(m.lines(16), 1);
        assert_eq!(m.lines(17), 2);
        assert_eq!(m.lines(0), 1); // metadata-only objects still cost a line
    }

    #[test]
    fn dash_transfer_ordering() {
        let m = DashSpec::paper(32);
        let b = 4096;
        let clean = m.transfer_time(b, DashHit::RemoteClean);
        let dirty = m.transfer_time(b, DashHit::RemoteDirty);
        assert!(SimDuration::ZERO < clean && clean < dirty);
    }

    #[test]
    fn ipsc_serial_send_matches_paper() {
        // Paper Section 5.3: a 165,888-byte object takes ~.07 s per serial
        // point-to-point send.
        let m = IpscSpec::paper(32);
        let t = m.message_time(165_888, 0, 1).as_secs_f64();
        assert!((0.055..0.075).contains(&t), "send time {t}");
    }

    #[test]
    fn ipsc_broadcast_matches_paper() {
        // Paper Section 5.3: broadcasting the same object to 32 processors
        // takes ~.31 s.
        let m = IpscSpec::paper(32);
        let t = m.broadcast_time(165_888).as_secs_f64();
        assert!((0.25..0.37).contains(&t), "broadcast time {t}");
    }

    #[test]
    fn ipsc_short_message_floor() {
        let m = IpscSpec::paper(8);
        let t = m.message_time(0, 0, 1).as_secs_f64();
        assert!(t >= 47e-6);
    }

    #[test]
    fn hypercube_dims() {
        assert_eq!(hypercube_dimension(1), 0);
        assert_eq!(hypercube_dimension(2), 1);
        assert_eq!(hypercube_dimension(3), 2);
        assert_eq!(hypercube_dimension(24), 5);
        assert_eq!(hypercube_dimension(32), 5);
    }

    #[test]
    fn hops_hamming() {
        let m = IpscSpec::paper(32);
        assert_eq!(m.hops(0b00000, 0b10101), 3);
        assert_eq!(m.hops(7, 7), 0);
    }
}
