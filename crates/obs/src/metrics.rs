//! The metrics registry: the fixed set of latency histograms the stack
//! records into.

use crate::hist::{Histogram, HistogramSnapshot};

/// The latency distributions the stack records, one histogram each. All
/// values are nanosecond durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyMetric {
    /// Task end-to-end latency: submission to finish (memoized bypasses
    /// included — they are the point).
    TaskLatency,
    /// Kernel execution time of tasks that actually ran.
    Kernel,
    /// Master-thread time spent inside one submit call (per task).
    Submit,
    /// Time spent probing the THT on the memo-lookup path.
    MemoLookup,
    /// Full store insert time (admission + placement + budget eviction).
    StoreInsert,
    /// Time spent inside budget-eviction rounds.
    StoreEvict,
    /// End-to-end request latency of the serving tier: admission to the
    /// completion of the request's last task (see `atm-serve`).
    Request,
    /// Worker time spent in one release cycle: finishing a task (plus its
    /// producer-completed deferred waiters), publishing the released
    /// successors to the ready queue and retiring the outstanding count.
    Release,
}

impl LatencyMetric {
    /// Every metric, in display order.
    pub const ALL: [LatencyMetric; 8] = [
        LatencyMetric::TaskLatency,
        LatencyMetric::Kernel,
        LatencyMetric::Submit,
        LatencyMetric::MemoLookup,
        LatencyMetric::StoreInsert,
        LatencyMetric::StoreEvict,
        LatencyMetric::Request,
        LatencyMetric::Release,
    ];

    /// Stable snake_case name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            LatencyMetric::TaskLatency => "task_latency",
            LatencyMetric::Kernel => "kernel",
            LatencyMetric::Submit => "submit",
            LatencyMetric::MemoLookup => "memo_lookup",
            LatencyMetric::StoreInsert => "store_insert",
            LatencyMetric::StoreEvict => "store_evict",
            LatencyMetric::Request => "request",
            LatencyMetric::Release => "release",
        }
    }

    fn index(self) -> usize {
        match self {
            LatencyMetric::TaskLatency => 0,
            LatencyMetric::Kernel => 1,
            LatencyMetric::Submit => 2,
            LatencyMetric::MemoLookup => 3,
            LatencyMetric::StoreInsert => 4,
            LatencyMetric::StoreEvict => 5,
            LatencyMetric::Request => 6,
            LatencyMetric::Release => 7,
        }
    }
}

/// The histogram set behind [`LatencyMetric`].
pub struct MetricsRegistry {
    hists: Vec<Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates empty histograms for every metric.
    pub fn new() -> Self {
        Self {
            hists: (0..LatencyMetric::ALL.len())
                .map(|_| Histogram::new())
                .collect(),
        }
    }

    /// Records `ns` into `metric` on `worker`'s shard.
    pub fn record(&self, metric: LatencyMetric, worker: usize, ns: u64) {
        self.hists[metric.index()].record(worker, ns);
    }

    /// Snapshots every histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            hists: self.hists.iter().map(Histogram::snapshot).collect(),
        }
    }
}

/// Owned snapshot of every latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    hists: Vec<HistogramSnapshot>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl MetricsSnapshot {
    /// A snapshot with every histogram empty.
    pub fn empty() -> Self {
        Self {
            hists: (0..LatencyMetric::ALL.len())
                .map(|_| HistogramSnapshot::empty())
                .collect(),
        }
    }

    /// The snapshot of one metric's histogram.
    pub fn get(&self, metric: LatencyMetric) -> &HistogramSnapshot {
        &self.hists[metric.index()]
    }

    /// Folds another snapshot into this one, metric by metric.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (acc, h) in self.hists.iter_mut().zip(&other.hists) {
            acc.merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_routes_by_metric() {
        let reg = MetricsRegistry::new();
        reg.record(LatencyMetric::Kernel, 0, 100);
        reg.record(LatencyMetric::Kernel, 1, 200);
        reg.record(LatencyMetric::Submit, 0, 5);
        let snap = reg.snapshot();
        assert_eq!(snap.get(LatencyMetric::Kernel).count, 2);
        assert_eq!(snap.get(LatencyMetric::Submit).count, 1);
        assert_eq!(snap.get(LatencyMetric::TaskLatency).count, 0);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let reg = MetricsRegistry::new();
        reg.record(LatencyMetric::TaskLatency, 0, 1000);
        let mut acc = MetricsSnapshot::empty();
        acc.merge(&reg.snapshot());
        acc.merge(&reg.snapshot());
        assert_eq!(acc.get(LatencyMetric::TaskLatency).count, 2);
    }

    #[test]
    fn metric_names_are_unique() {
        let names: std::collections::HashSet<_> =
            LatencyMetric::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), LatencyMetric::ALL.len());
    }
}
