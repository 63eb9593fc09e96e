//! Input generation. Everything a workload feeds the program is derived
//! from the one `--seed`: per-stream generator seeds, the Zipf request
//! stream, the open-loop arrival schedule and the lane bookkeeping of the
//! serving workload.

use atm_hash::{SplitMix64, Xoshiro256StarStar};

/// Seed of the named generator stream under the run's `--seed`. Streams are
/// independent: changing one workload's generator never shifts another's.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    // FNV-1a over the stream name, folded into the seed through SplitMix64.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// Zipf(`s`) over ranks `0..n` by inversion of the precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Open-loop arrivals: a Poisson process at `rate` per second. Due times
/// depend only on the seed, never on how fast the service answers.
pub struct Schedule {
    rng: Xoshiro256StarStar,
    mean_gap_ns: f64,
    next_due_ns: f64,
}

impl Schedule {
    pub fn new(seed: u64, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0);
        Schedule {
            rng: Xoshiro256StarStar::new(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            next_due_ns: 0.0,
        }
    }

    /// Due time of the next arrival, nanoseconds from the schedule's start.
    pub fn next_due_ns(&mut self) -> u64 {
        // 1 - u is in (0, 1], so the logarithm is finite.
        let gap = -(1.0 - self.rng.next_f64()).ln() * self.mean_gap_ns;
        self.next_due_ns += gap;
        self.next_due_ns as u64
    }
}

/// Which lanes (one input region + one result cell each) carry a request
/// in flight. The generator writes a lane's input region only between
/// `acquire` and the request's completion, so a region is never written
/// while a task that reads it is live.
pub struct LaneTable {
    busy: Vec<bool>,
    cursor: usize,
    in_flight: usize,
}

impl LaneTable {
    pub fn new(lanes: usize) -> Self {
        LaneTable {
            busy: vec![false; lanes],
            cursor: 0,
            in_flight: 0,
        }
    }

    /// Claims the next free lane round-robin; `None` when all are busy.
    pub fn acquire(&mut self) -> Option<usize> {
        let n = self.busy.len();
        for step in 0..n {
            let lane = (self.cursor + step) % n;
            if !self.busy[lane] {
                self.busy[lane] = true;
                self.cursor = (lane + 1) % n;
                self.in_flight += 1;
                return Some(lane);
            }
        }
        None
    }

    pub fn release(&mut self, lane: usize) {
        assert!(self.busy[lane], "lane {lane} released while free");
        self.busy[lane] = false;
        self.in_flight -= 1;
    }

    #[cfg(test)]
    pub fn is_busy(&self, lane: usize) -> bool {
        self.busy[lane]
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_stream(seed: u64, n: usize) -> Vec<usize> {
        let zipf = Zipf::new(8192, 0.99);
        let mut rng = Xoshiro256StarStar::new(derive_seed(seed, "serve-zipf/stream"));
        (0..n).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn derived_seeds_depend_on_seed_and_stream() {
        assert_eq!(derive_seed(1, "a"), derive_seed(1, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
        assert_ne!(derive_seed(1, "a"), derive_seed(1, "b"));
    }

    #[test]
    fn zipf_stream_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(zipf_stream(1, 4096), zipf_stream(1, 4096));
        assert_ne!(zipf_stream(1, 4096), zipf_stream(2, 4096));
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks_and_stays_in_range() {
        let stream = zipf_stream(7, 50_000);
        assert!(stream.iter().all(|&r| r < 8192));
        let head = stream.iter().filter(|&&r| r < 82).count() as f64 / stream.len() as f64;
        // The top 1 % of ranks carries about half of a Zipf(0.99) stream.
        assert!((0.40..0.65).contains(&head), "head share {head}");
    }

    #[test]
    fn schedule_is_deterministic_increasing_and_paced() {
        let due = |seed| {
            let mut s = Schedule::new(derive_seed(seed, "serve-zipf/arrivals"), 10_000.0);
            (0..20_000).map(|_| s.next_due_ns()).collect::<Vec<_>>()
        };
        let a = due(1);
        assert_eq!(a, due(1));
        assert_ne!(a, due(2));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 20 000 arrivals at 10 000/s take about two seconds.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((1.9..2.1).contains(&span_s), "span {span_s}");
    }

    #[test]
    fn a_lane_with_a_request_in_flight_is_never_handed_out() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut lanes = LaneTable::new(8);
        let mut held: Vec<usize> = Vec::new();
        for _ in 0..10_000 {
            if rng.next_f64() < 0.55 {
                match lanes.acquire() {
                    Some(lane) => {
                        assert!(!held.contains(&lane), "busy lane {lane} handed out");
                        held.push(lane);
                    }
                    None => assert_eq!(held.len(), 8, "refused with a free lane"),
                }
            } else if !held.is_empty() {
                let lane = held.swap_remove(rng.below(held.len()));
                lanes.release(lane);
            }
            assert_eq!(lanes.in_flight(), held.len());
            for lane in 0..8 {
                assert_eq!(lanes.is_busy(lane), held.contains(&lane));
            }
        }
    }
}
