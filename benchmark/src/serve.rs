//! `serve-zipf`: the serving tier under an open-loop Zipf request stream
//! whose working set is four times the memo-store budget. One generator
//! thread drives 4 sessions × 320 lanes; a request writes a 4 KiB payload
//! into a free lane and submits a two-task chain (memoizable `transform`,
//! non-memoizable `fold`). Lookups hit *and* miss, every miss inserts and
//! evicts — writes beside reads on the store, which `flood` never does.

use crate::env::peak_rss_mib;
use crate::gen::{derive_seed, LaneTable, Schedule, Zipf};
use crate::json::Json;
use crate::outcome::{Budget, Metrics, Outcome, RunCtx};
use crate::probes::{self, ProbeShape};
use crate::stats::{median, percentile_sorted, quartiles, sorted, Measured};
use crate::trace::{Span, TraceData, Tracer};
use atm_core::{AtmConfig, MemoSpec};
use atm_hash::Xoshiro256StarStar;
use atm_obs::EngineObservation;
use atm_runtime::{Observation, Region, RuntimeStatsSnapshot, TaskTypeBuilder, TaskTypeId};
use atm_serve::{Request, ServeConfig, ServeEngine, ServeError, Session};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
/// More lanes than admission slots: under `sat` it is the service's window
/// (`Overloaded`) that sheds load, not the generator's lane table.
const LANES_PER_SESSION: usize = 320;
const LANES: usize = SESSIONS * LANES_PER_SESSION;
/// 4 KiB of `f32` per payload and per `transform` output.
const PAYLOAD_ELEMS: usize = 1024;
const POOL_PAYLOADS: usize = 8192;
const ZIPF_EXPONENT: f64 = 0.99;
/// The pool's outputs (32 MiB) are four times this budget.
const STORE_BUDGET_BYTES: usize = 8 << 20;
/// Deep enough that a 150 ms stall of the box at `mid` (900 arrivals) is
/// queued inside the service. (The reference box stalls for 3–15 ms several
/// times a second and for 40–70 ms about once a minute.) A longer stall
/// fills the window; outside `sat` the generator then holds the arrival
/// (`Overflow::Hold`) instead of dropping it, so no request ever fails there.
const MAX_INFLIGHT_REQUESTS: usize = 1024;
const TRANSFORM_SPIN_US: u64 = 150;
/// Offered rates per serving worker, frozen after one calibration on the
/// reference box: `mid` sits at 56 % of the seed commit's capacity
/// (`sat_goodput_rps` ≈ 16 000 per worker), `sat` at about 2.5 times it.
/// Two things about the host move the latencies at `mid`, each for minutes
/// at a time. The futex wake-up of a parked worker (a trip through the
/// hypervisor, 45–90 µs) is the median request's whole latency when most
/// arrivals find the worker parked: at 6 000 and 8 000 rps two sets of ten
/// runs had medians 29 % apart (131 / 169 µs). The CPU's speed (±10 %) moves
/// the utilisation, and the queue multiplies that: at 10 000 rps, where the
/// median request waits behind a `transform` in progress and repeats within
/// 5 %, the tail of a slow set was 45 % above a quiet one's. At 9 000 rps
/// twelve interleaved runs scattered by 8 % (p50) and 6 % (p99), against
/// 11 % / 10 % at 8 000 and 6 % / 8 % at 10 000.
const RATE_LO_PER_WORKER: f64 = 2_000.0;
const RATE_MID_PER_WORKER: f64 = 9_000.0;
const RATE_SAT_PER_WORKER: f64 = 40_000.0;
/// `mid` is cut into windows of about 60 ms and 530 requests (5 beyond the
/// p99). The reported p50 is the median window's, the p99 the
/// lower-quartile window's (see `Load::mid_quiet`). Short windows are what
/// steadies the tail: over twelve runs the lower-quartile window's p99 spans
/// 12 % with 160 windows, and the quietest window's 20 % with 20 windows
/// of eight times the length, nearly all of which hold a stall.
const MID_WINDOWS: usize = 160;
/// Consecutive blocks of windows whose spread is reported as a reading's own
/// noise (see `Load::mid_stat`).
const MID_BLOCKS: usize = 8;
/// Latency limit on the window p99 (README "latency limit").
const P99_LIMIT_US: f64 = 2_000.0;
/// A run whose generator ran later than this at `mid` is flagged invalid.
const GEN_LATE_LIMIT_US: f64 = 200.0;
/// Closed-loop clients of the warm-fill and the replays.
const CLOSED_LOOP_CLIENTS: usize = 8;
const WARM_FILL_REQUESTS: usize = 6_000;
/// Long enough to turn the FIFO store over more than once: whether the
/// Zipf head was just evicted swings the hit ratio of a short replay.
const REPLAY_REQUESTS: usize = 6_000;
const SMOKE_REQUESTS: usize = 200;

/// The payload pool and the value every payload's request must return.
struct Pool {
    payloads: Vec<f32>,
    expected: Vec<f64>,
    zipf: Zipf,
}

impl Pool {
    fn generate(seed: u64, payloads: usize) -> Pool {
        let mut rng = Xoshiro256StarStar::new(derive_seed(seed, "serve-zipf/pool"));
        let data: Vec<f32> = (0..payloads * PAYLOAD_ELEMS)
            .map(|_| rng.next_f32() * 100.0)
            .collect();
        let expected = data
            .chunks_exact(PAYLOAD_ELEMS)
            .map(|payload| fold(&transform(payload)))
            .collect();
        Pool {
            payloads: data,
            expected,
            zipf: Zipf::new(payloads, ZIPF_EXPONENT),
        }
    }

    fn payload(&self, index: usize) -> &[f32] {
        &self.payloads[index * PAYLOAD_ELEMS..(index + 1) * PAYLOAD_ELEMS]
    }
}

fn transform(input: &[f32]) -> Vec<f32> {
    input.iter().map(|v| v * 1.5 + 0.25).collect()
}

fn fold(values: &[f32]) -> f64 {
    values.iter().map(|&v| f64::from(v)).sum()
}

/// What the traced pass shares between the generator and the kernels.
struct ServeTrace {
    tracer: Arc<Tracer>,
    /// Region index of a lane's input or transform output → lane.
    lane_of_region: RwLock<HashMap<usize, usize>>,
    /// Sequence number of the request a lane currently carries.
    lane_seq: Vec<AtomicU64>,
}

impl ServeTrace {
    fn new(tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(ServeTrace {
            tracer,
            lane_of_region: RwLock::default(),
            lane_seq: (0..LANES).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    fn kernel_span(&self, name: &'static str, region: usize, start_ns: u64) {
        let lanes = self.lane_of_region.read().expect("lane map poisoned");
        let id = lanes
            .get(&region)
            .map_or(0, |&lane| self.lane_seq[lane].load(Ordering::Relaxed));
        self.tracer.record(Span {
            name,
            layer: "runtime",
            start_ns,
            end_ns: self.tracer.now_ns(),
            parent: "request",
            id,
        });
    }
}

#[derive(Clone, Copy)]
struct Endpoints {
    transform: TaskTypeId,
    fold: TaskTypeId,
}

/// Builds a service and registers its two endpoints.
fn service(workers: usize, atm: bool, trace: Option<&Arc<ServeTrace>>) -> (ServeEngine, Endpoints) {
    let mut config = ServeConfig::default()
        .workers(workers)
        .max_inflight_requests(MAX_INFLIGHT_REQUESTS)
        .record_metrics(trace.is_some());
    if atm {
        config = config.atm(AtmConfig::static_atm().with_byte_budget(STORE_BUDGET_BYTES));
    }
    let serve = ServeEngine::new(config);
    let kernel_trace = trace.cloned();
    let transform_type = serve.register_task_type(
        TaskTypeBuilder::new("transform", move |ctx| {
            let started = Instant::now();
            let start_ns = kernel_trace.as_ref().map(|t| t.tracer.now_ns());
            let out = transform(&ctx.arg::<f32>(0));
            while started.elapsed() < Duration::from_micros(TRANSFORM_SPIN_US) {
                std::hint::spin_loop();
            }
            ctx.out(1, &out);
            if let (Some(t), Some(start_ns)) = (&kernel_trace, start_ns) {
                t.kernel_span("kernel.transform", ctx.access(0).region.index(), start_ns);
            }
        })
        .arg::<f32>()
        .out::<f32>()
        .memo(MemoSpec::exact())
        .build(),
    );
    let kernel_trace = trace.cloned();
    let fold_type = serve.register_task_type(
        TaskTypeBuilder::new("fold", move |ctx| {
            let start_ns = kernel_trace.as_ref().map(|t| t.tracer.now_ns());
            ctx.out(1, &[fold(&ctx.arg::<f32>(0))]);
            if let (Some(t), Some(start_ns)) = (&kernel_trace, start_ns) {
                t.kernel_span("kernel.fold", ctx.access(0).region.index(), start_ns);
            }
        })
        .arg::<f32>()
        .out::<f64>()
        .build(),
    );
    (
        serve,
        Endpoints {
            transform: transform_type,
            fold: fold_type,
        },
    )
}

struct InFlight {
    request: Request,
    payload: usize,
    /// Due → submit call, nanoseconds (the wait a late generator or a busy
    /// lane table imposed before the service saw the request).
    queued_ns: u64,
    seq: u64,
}

/// Why the service did not take an offered request.
enum Refusal {
    /// The generator's lane table is full.
    NoLane,
    /// The service's admission window is full (`ServeError::Overloaded`).
    Overloaded,
}

/// What an open-loop phase does with an arrival the service cannot take.
#[derive(Clone, Copy, PartialEq)]
enum Overflow {
    /// Drop it and count it refused: `sat`, where shedding is the design.
    Shed,
    /// Keep it, and every arrival behind it, until the service takes it;
    /// the wait counts in its latency, which runs from its due time. `lo`
    /// and `mid`: a stall of the box shows as latency, never as a failure.
    Hold,
}

/// What one phase (a window of offered load, or a closed-loop replay)
/// counted and timed.
#[derive(Debug, Default, Clone)]
struct Phase {
    seconds: f64,
    attempted: u64,
    admitted: u64,
    no_lane: u64,
    overloaded: u64,
    /// Arrivals that waited for a lane or a slot (`Overflow::Hold`).
    held: u64,
    completed: u64,
    wrong: u64,
    /// Due → last task finished, microseconds, per completed request.
    latency_us: Vec<f64>,
    /// How late the generator issued each arrival, microseconds.
    late_us: Vec<f64>,
    tasks_finished: u64,
}

impl Phase {
    fn refused(&self) -> u64 {
        self.no_lane + self.overloaded
    }

    fn p(&self, percentile: f64) -> f64 {
        percentile_sorted(&sorted(&self.latency_us), percentile)
    }

    fn goodput_rps(&self) -> f64 {
        (self.completed - self.wrong) as f64 / self.seconds
    }

    fn refused_share(&self) -> f64 {
        self.refused() as f64 / self.attempted.max(1) as f64
    }

    /// At most 1 % of the arrivals were refused or had to be held.
    fn takes_the_rate(&self) -> bool {
        (self.refused() + self.held) as f64 <= 0.01 * self.attempted as f64
    }

    /// Meets the latency limit at the offered rate.
    fn within_limit(&self) -> bool {
        self.p(99.0) <= P99_LIMIT_US && self.takes_the_rate()
    }

    fn absorb(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.admitted += other.admitted;
        self.no_lane += other.no_lane;
        self.overloaded += other.overloaded;
        self.held += other.held;
        self.completed += other.completed;
        self.wrong += other.wrong;
    }
}

/// The single load-generator thread's view of one service: its sessions,
/// lanes and the requests in flight.
struct Client<'s> {
    serve: &'s ServeEngine,
    endpoints: Endpoints,
    pool: &'s Pool,
    sessions: Vec<Session<'s>>,
    inputs: Vec<Region<f32>>,
    mids: Vec<Region<f32>>,
    cells: Vec<Region<f64>>,
    lanes: LaneTable,
    /// `(lane, request)` of every request not yet harvested.
    in_flight: Vec<(usize, InFlight)>,
    next_seq: u64,
    trace: Option<Arc<ServeTrace>>,
}

fn finished_tasks(stats: &RuntimeStatsSnapshot) -> u64 {
    stats.executed + stats.bypassed + stats.deferred
}

impl<'s> Client<'s> {
    fn open(
        serve: &'s ServeEngine,
        endpoints: Endpoints,
        pool: &'s Pool,
        trace: Option<&Arc<ServeTrace>>,
    ) -> Client<'s> {
        let mut client = Client {
            serve,
            endpoints,
            pool,
            sessions: Vec::new(),
            inputs: Vec::new(),
            mids: Vec::new(),
            cells: Vec::new(),
            lanes: LaneTable::new(LANES),
            in_flight: Vec::with_capacity(LANES),
            next_seq: 1,
            trace: trace.cloned(),
        };
        for _ in 0..SESSIONS {
            let mut session = serve.session().expect("a fresh service admits sessions");
            for lane in 0..LANES_PER_SESSION {
                let register = "session regions have distinct names";
                client.inputs.push(
                    session
                        .register_zeros(format!("in{lane}"), PAYLOAD_ELEMS)
                        .expect(register),
                );
                client.mids.push(
                    session
                        .register_zeros(format!("mid{lane}"), PAYLOAD_ELEMS)
                        .expect(register),
                );
                client.cells.push(
                    session
                        .register_zeros(format!("cell{lane}"), 1)
                        .expect(register),
                );
            }
            client.sessions.push(session);
        }
        if let Some(trace) = &client.trace {
            let mut map = trace.lane_of_region.write().expect("lane map poisoned");
            map.clear();
            for lane in 0..LANES {
                map.insert(client.inputs[lane].id().index(), lane);
                map.insert(client.mids[lane].id().index(), lane);
            }
        }
        client
    }

    /// Offers one request due `queued_ns` ago. A full lane table or a full
    /// admission window refuses it.
    fn offer(&mut self, payload: usize, queued_ns: u64, phase: &mut Phase) -> Result<(), Refusal> {
        let Some(lane) = self.lanes.acquire() else {
            return Err(Refusal::NoLane);
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let store = self.serve.runtime().store();
        let write = || {
            store
                .write(self.inputs[lane])
                .lock()
                .as_f32_mut()
                .copy_from_slice(self.pool.payload(payload));
        };
        let session = &self.sessions[lane / LANES_PER_SESSION];
        let submit = || {
            session
                .request()
                .task(self.endpoints.transform)
                .reads(&self.inputs[lane])
                .writes(&self.mids[lane])
                .task(self.endpoints.fold)
                .reads(&self.mids[lane])
                .writes(&self.cells[lane])
                .submit()
        };
        let submitted = match &self.trace {
            Some(trace) => {
                trace.lane_seq[lane].store(seq, Ordering::Relaxed);
                trace
                    .tracer
                    .span("runtime.region_write", "runtime", "request", seq, write);
                trace
                    .tracer
                    .span("serve.submit", "serve", "request", seq, submit)
            }
            None => {
                write();
                submit()
            }
        };
        match submitted {
            Ok(request) => {
                phase.admitted += 1;
                self.in_flight.push((
                    lane,
                    InFlight {
                        request,
                        payload,
                        queued_ns,
                        seq,
                    },
                ));
                Ok(())
            }
            Err(ServeError::Overloaded { .. }) => {
                self.lanes.release(lane);
                Err(Refusal::Overloaded)
            }
            Err(err) => panic!("serve-zipf request rejected: {err}"),
        }
    }

    /// Collects every completed request: latency, verification, lane free.
    fn harvest(&mut self, phase: &mut Phase) {
        let mut at = 0;
        while at < self.in_flight.len() {
            if !self.in_flight[at].1.request.is_complete() {
                at += 1;
                continue;
            }
            let (lane, flight) = self.in_flight.swap_remove(at);
            let served_ns = flight.request.latency_ns().expect("request completed");
            let latency_ns = flight.queued_ns + served_ns;
            let result = self.serve.runtime().store().contents(&self.cells[lane])[0];
            phase.completed += 1;
            phase.wrong +=
                u64::from(result.to_bits() != self.pool.expected[flight.payload].to_bits());
            phase.latency_us.push(latency_ns as f64 / 1e3);
            if let Some(trace) = &self.trace {
                let end_ns = trace.tracer.now_ns();
                trace.tracer.record(Span {
                    name: "request",
                    layer: "serve",
                    start_ns: end_ns.saturating_sub(latency_ns),
                    end_ns,
                    parent: "",
                    id: flight.seq,
                });
            }
            self.lanes.release(lane);
        }
    }

    fn drain_in_flight(&mut self, phase: &mut Phase) {
        while self.lanes.in_flight() > 0 {
            self.harvest(phase);
            std::hint::spin_loop();
        }
    }

    /// Open loop: Poisson arrivals at `rate` for `seconds`, each timed from
    /// its due time. The generator spins between arrivals (it owns a core)
    /// and harvests completions while it waits.
    fn open_loop(
        &mut self,
        rate: f64,
        seconds: f64,
        stream: &str,
        seed: u64,
        overflow: Overflow,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut schedule = Schedule::new(derive_seed(seed, &format!("{stream}/arrivals")), rate);
        let mut payloads =
            Xoshiro256StarStar::new(derive_seed(seed, &format!("{stream}/payloads")));
        let horizon_ns = (seconds * 1e9) as u64;
        let tasks_before = finished_tasks(&self.serve.runtime().stats());
        let started = Instant::now();
        let mut due_ns = schedule.next_due_ns();
        // The arrival the service turned away and the generator holds.
        let mut held: Option<usize> = None;
        while due_ns < horizon_ns {
            self.harvest(&mut phase);
            let now_ns = started.elapsed().as_nanos() as u64;
            if now_ns < due_ns {
                std::hint::spin_loop();
                continue;
            }
            let first_try = held.is_none();
            let payload = held
                .take()
                .unwrap_or_else(|| self.pool.zipf.sample(&mut payloads));
            if first_try {
                phase.attempted += 1;
                phase.late_us.push((now_ns - due_ns) as f64 / 1e3);
            }
            // The generator is the service's only client: while it holds
            // a full window's worth of requests it need not ask (and a
            // traced pass records no span per spin of the wait).
            let window_full =
                overflow == Overflow::Hold && self.in_flight.len() >= MAX_INFLIGHT_REQUESTS;
            let offered = if window_full {
                Err(Refusal::Overloaded)
            } else {
                self.offer(payload, now_ns - due_ns, &mut phase)
            };
            match offered {
                Ok(()) => {}
                Err(_) if overflow == Overflow::Hold => {
                    phase.held += u64::from(first_try);
                    held = Some(payload);
                    continue;
                }
                Err(Refusal::NoLane) => phase.no_lane += 1,
                Err(Refusal::Overloaded) => phase.overloaded += 1,
            }
            due_ns = schedule.next_due_ns();
        }
        self.drain_in_flight(&mut phase);
        phase.seconds = started.elapsed().as_secs_f64();
        phase.tasks_finished = finished_tasks(&self.serve.runtime().stats()) - tasks_before;
        phase
    }

    /// Closed loop: `CLOSED_LOOP_CLIENTS` callers, each sending its next
    /// request when the previous one completed, until `requests` are done.
    fn closed_loop(&mut self, requests: usize, stream: &str, seed: u64) -> Phase {
        let mut phase = Phase::default();
        let mut payloads =
            Xoshiro256StarStar::new(derive_seed(seed, &format!("{stream}/payloads")));
        let tasks_before = finished_tasks(&self.serve.runtime().stats());
        let started = Instant::now();
        let mut sent = 0usize;
        while (phase.completed as usize) < requests {
            self.harvest(&mut phase);
            while sent < requests && self.lanes.in_flight() < CLOSED_LOOP_CLIENTS {
                let payload = self.pool.zipf.sample(&mut payloads);
                phase.attempted += 1;
                assert!(
                    self.offer(payload, 0, &mut phase).is_ok(),
                    "{CLOSED_LOOP_CLIENTS} requests in flight fit every window"
                );
                sent += 1;
            }
            std::hint::spin_loop();
        }
        phase.seconds = started.elapsed().as_secs_f64();
        phase.tasks_finished = finished_tasks(&self.serve.runtime().stats()) - tasks_before;
        phase
    }

    /// Closes every session (their regions are released).
    fn close(self) {
        for session in self.sessions {
            session
                .close()
                .expect("no foreign task touches session regions");
        }
    }
}

/// One full set-up: payload pool, warm-fill on service A, snapshot, and
/// the numbers the persist layer reports.
struct Warm {
    pool: Pool,
    snapshot: PathBuf,
    save_ms: f64,
    snapshot_mb: f64,
    fill: Phase,
}

fn warm_fill(ctx: &RunCtx, workers: usize) -> Warm {
    let pool = Pool::generate(ctx.seed, if ctx.smoke { 512 } else { POOL_PAYLOADS });
    let snapshot = ctx
        .out_dir
        .join(format!("serve-zipf-warm-{}.bin", std::process::id()));
    let (serve, endpoints) = service(workers, true, None);
    let mut client = Client::open(&serve, endpoints, &pool, None);
    let requests = if ctx.smoke {
        SMOKE_REQUESTS
    } else {
        WARM_FILL_REQUESTS
    };
    let fill = client.closed_loop(requests, "serve-zipf/warm", ctx.seed);
    let save_started = Instant::now();
    serve
        .engine()
        .expect("service A memoizes")
        .save_store(&snapshot)
        .expect("snapshot written inside the output directory");
    let save_ms = save_started.elapsed().as_secs_f64() * 1e3;
    let snapshot_mb =
        std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0));
    client.close();
    serve.drain();
    Warm {
        pool,
        snapshot,
        save_ms,
        snapshot_mb,
        fill,
    }
}

/// A memoizing service warm-started from `snapshot`; returns the load time.
fn warm_service(
    workers: usize,
    snapshot: &Path,
    trace: Option<&Arc<ServeTrace>>,
) -> (ServeEngine, Endpoints, f64) {
    let (serve, endpoints) = service(workers, true, trace);
    let load_started = Instant::now();
    serve
        .engine()
        .expect("service memoizes")
        .warm_start_from(snapshot)
        .expect("snapshot written by this run loads");
    (serve, endpoints, load_started.elapsed().as_secs_f64() * 1e3)
}

/// The three offered-load phases of one pass.
struct Load {
    lo: Phase,
    mid: Vec<Phase>,
    sat: Phase,
    /// When `sat` began on the tracer's clock (0 in an untraced pass).
    sat_started_ns: u64,
    engine: EngineObservation,
}

impl Load {
    /// `stat` of the `mid` windows' `percentile`. Windows of 60 ms differ
    /// far more than runs do, so the quartiles beside the value are not the
    /// windows' but those of the same statistic over `MID_BLOCKS`
    /// consecutive blocks of windows: the rounds of this workload.
    fn mid_stat(&self, percentile: f64, stat: fn(&[f64]) -> f64) -> Measured {
        let windows: Vec<f64> = self.mid.iter().map(|w| w.p(percentile)).collect();
        let blocks: Vec<f64> = windows
            .chunks(windows.len().div_ceil(MID_BLOCKS))
            .map(stat)
            .collect();
        let (q1, q3) = quartiles(&blocks);
        Measured {
            value: stat(&windows),
            q1,
            q3,
            n: windows.len(),
        }
    }

    /// The median window's `percentile`.
    fn mid_p(&self, percentile: f64) -> Measured {
        self.mid_stat(percentile, median)
    }

    /// A tail percentile of the *lower-quartile window* of `mid`. On a
    /// shared box the disturbances are one-sided — scheduler stalls (3–15
    /// ms, several a second) only ever add latency, and whether one falls
    /// into a window decides its tail. The windows are short (60 ms) so that
    /// most of them see none: the quarter of the windows with the lowest
    /// tails shows the service's own and repeats between runs even when
    /// the box stalls in most of the others.
    fn mid_quiet(&self, percentile: f64) -> Measured {
        self.mid_stat(percentile, |windows| quartiles(windows).0)
    }

    fn mid_total(&self) -> Phase {
        let mut total = Phase::default();
        for window in &self.mid {
            total.absorb(window);
            total.latency_us.extend(&window.latency_us);
            total.late_us.extend(&window.late_us);
        }
        total
    }

    fn all(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.lo)
            .chain(&self.mid)
            .chain(std::iter::once(&self.sat))
    }
}

/// Runs `lo`, the `mid` windows and `sat` for `seconds` in total.
fn offered_load(
    client: &mut Client<'_>,
    serve_workers: usize,
    seconds: f64,
    windows: usize,
    seed: u64,
) -> Load {
    let w = serve_workers as f64;
    let lo = client.open_loop(
        RATE_LO_PER_WORKER * w,
        seconds * 0.125,
        "serve-zipf/lo",
        seed,
        Overflow::Hold,
    );
    let mid = (0..windows)
        .map(|i| {
            client.open_loop(
                RATE_MID_PER_WORKER * w,
                seconds * 0.675 / windows as f64,
                &format!("serve-zipf/mid{i}"),
                seed,
                Overflow::Hold,
            )
        })
        .collect();
    let sat_started_ns = client.trace.as_ref().map_or(0, |t| t.tracer.now_ns());
    let sat = client.open_loop(
        RATE_SAT_PER_WORKER * w,
        seconds * 0.2,
        "serve-zipf/sat",
        seed,
        Overflow::Shed,
    );
    let engine = client.serve.observe().engine.unwrap_or_default();
    Load {
        lo,
        mid,
        sat,
        sat_started_ns,
        engine,
    }
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let workers = ctx.sizing.serve_workers;
    let w = workers as f64;
    let mut outcome = Outcome::new(
        "serve-zipf",
        Json::obj([
            ("rate_lo_rps", Json::Num(RATE_LO_PER_WORKER * w)),
            ("rate_mid_rps", Json::Num(RATE_MID_PER_WORKER * w)),
            ("rate_sat_rps", Json::Num(RATE_SAT_PER_WORKER * w)),
            ("sessions", Json::Num(SESSIONS as f64)),
            ("lanes", Json::Num(LANES as f64)),
            ("payload_bytes", Json::Num((PAYLOAD_ELEMS * 4) as f64)),
            ("pool_payloads", Json::Num(POOL_PAYLOADS as f64)),
            ("zipf_exponent", Json::Num(ZIPF_EXPONENT)),
            ("store_budget_bytes", Json::Num(STORE_BUDGET_BYTES as f64)),
            ("transform_spin_us", Json::Num(TRANSFORM_SPIN_US as f64)),
            ("p99_limit_us", Json::Num(P99_LIMIT_US)),
        ]),
    );
    if let Err(err) = std::fs::create_dir_all(&ctx.out_dir) {
        outcome.gate(
            "out_dir",
            false,
            format!("{}: {err}", ctx.out_dir.display()),
        );
        return outcome;
    }

    // Set-up, repeated: pool, warm-fill on service A, snapshot, service B
    // warm-started from it with its sessions open.
    let mut setup = Vec::new();
    let mut warm = None;
    let mut load_ms = 0.0;
    for _ in 0..ctx.setup_reps() {
        let started = Instant::now();
        let this = warm_fill(ctx, workers);
        let (serve, endpoints, ms) = warm_service(workers, &this.snapshot, None);
        let client = Client::open(&serve, endpoints, &this.pool, None);
        setup.push(started.elapsed().as_secs_f64());
        // Only the last repetition's service B would serve; tearing each
        // one down keeps the repetitions identical.
        client.close();
        serve.drain();
        load_ms = ms;
        warm = Some(this);
    }
    let warm = warm.expect("at least one set-up repetition");
    let pool = &warm.pool;
    let replay_requests = if ctx.smoke {
        SMOKE_REQUESTS
    } else {
        REPLAY_REQUESTS
    };
    let windows = if ctx.smoke { 2 } else { MID_WINDOWS };
    let mut phases_checked: Vec<Phase> = vec![warm.fill.clone()];
    let mut attempted = 0u64;

    if ctx.trace.untraced() {
        let (serve, endpoints, _) = warm_service(workers, &warm.snapshot, None);
        let (plain, plain_endpoints) = service(workers, false, None);
        let mut client = Client::open(&serve, endpoints, pool, None);
        let mut control = Client::open(&plain, plain_endpoints, pool, None);
        let budget = Budget::new(ctx.seconds);
        let load = offered_load(&mut client, workers, ctx.seconds * 0.7, windows, ctx.seed);
        // Time to solution of a fixed request stream, memoizing service
        // against the no-ATM control, alternating.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        loop {
            let pair_started = Instant::now();
            let stream = format!("serve-zipf/replay{}", on.len());
            if on.len().is_multiple_of(2) {
                on.push(client.closed_loop(replay_requests, &stream, ctx.seed));
                off.push(control.closed_loop(replay_requests, &stream, ctx.seed));
            } else {
                off.push(control.closed_loop(replay_requests, &stream, ctx.seed));
                on.push(client.closed_loop(replay_requests, &stream, ctx.seed));
            }
            if ctx.smoke || !budget.has_room_for(pair_started.elapsed().as_secs_f64()) {
                break;
            }
        }
        client.close();
        control.close();
        serve.drain();
        plain.drain();
        end_to_end(&mut outcome.end_to_end, &setup, &load, &on, &off);
        let mid = load.mid_total();
        attempted += load.lo.attempted
            + mid.attempted
            + (on.len() + off.len()) as u64 * replay_requests as u64;
        outcome.valid &= percentile_sorted(&sorted(&mid.late_us), 99.0) <= GEN_LATE_LIMIT_US;
        phases_checked.extend(load.all().cloned());
        phases_checked.extend(on.into_iter().chain(off));
    }

    if ctx.trace.traced() {
        let tracer = Arc::new(Tracer::new());
        let trace = ServeTrace::new(Arc::clone(&tracer));
        let (serve, endpoints, _) = warm_service(workers, &warm.snapshot, Some(&trace));
        let (quiet, quiet_endpoints, _) = warm_service(workers, &warm.snapshot, None);
        let mut client = Client::open(&serve, endpoints, pool, Some(&trace));
        let mut control = Client::open(&quiet, quiet_endpoints, pool, None);
        // The probes need about 2.5 s of the pass; the load gets 70 % of
        // the rest, the overhead replays what remains.
        let pass_seconds = (ctx.seconds - 13.0 * ctx.probe_seconds()).max(1.0);
        let budget = Budget::new(pass_seconds);
        let load = offered_load(&mut client, workers, pass_seconds * 0.7, windows, ctx.seed);
        // Tracing overhead: the same closed-loop stream on the traced and
        // on an untraced warm service, alternating.
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        loop {
            let pair_started = Instant::now();
            let stream = format!("serve-zipf/replay{}", traced.len());
            traced.push(client.closed_loop(replay_requests, &stream, ctx.seed));
            untraced.push(control.closed_loop(replay_requests, &stream, ctx.seed));
            if ctx.smoke || !budget.has_room_for(pair_started.elapsed().as_secs_f64()) {
                break;
            }
        }
        let session_cycle_ms = session_cycles(&serve, &tracer);
        client.close();
        control.close();
        quiet.drain();
        let drain_started = tracer.now_ns();
        let observation = serve.drain();
        tracer.record(Span {
            name: "serve.drain",
            layer: "serve",
            start_ns: drain_started,
            end_ns: tracer.now_ns(),
            parent: "",
            id: 0,
        });
        let mut data = tracer.drain();
        per_layer(
            &mut outcome.per_layer,
            workers,
            &load,
            &traced,
            &untraced,
            &observation,
            &data,
            &warm,
            load_ms,
            session_cycle_ms,
        );
        let store = observation.store.unwrap_or_default();
        let shape = ProbeShape {
            input_bytes: PAYLOAD_ELEMS * 4,
            output_bytes: PAYLOAD_ELEMS * 4,
            p: 1.0,
            entries: store.entries as usize,
        };
        probes::run(ctx, shape, &tracer, &mut outcome.per_layer);
        data.absorb(tracer.drain());
        data.conclude(&mut outcome, &ctx.out_dir);
        let engine = observation.engine.unwrap_or_default();
        outcome.gate(
            "serve-zipf.store_reconciles",
            store.hits + store.misses == engine.seen,
            format!(
                "store.hits {} + store.misses {} vs core.engine.seen {}",
                store.hits, store.misses, engine.seen
            ),
        );
        let mid = load.mid_total();
        if !ctx.trace.untraced() {
            attempted += load.lo.attempted + mid.attempted;
            outcome.valid &= percentile_sorted(&sorted(&mid.late_us), 99.0) <= GEN_LATE_LIMIT_US;
        }
        phases_checked.extend(load.all().cloned());
        phases_checked.extend(traced.into_iter().chain(untraced));
    }
    // The snapshot is scratch: nothing reads it after the services loaded.
    let _ = std::fs::remove_file(&warm.snapshot);

    let completed: u64 = phases_checked.iter().map(|p| p.completed).sum();
    let wrong: u64 = phases_checked.iter().map(|p| p.wrong).sum();
    let unfinished: u64 = phases_checked
        .iter()
        .map(|p| p.admitted - p.completed)
        .sum();
    outcome.gate(
        "serve-zipf.results",
        wrong == 0 && unfinished == 0,
        format!("{wrong} of {completed} completed requests returned a wrong value; {unfinished} admitted requests never completed"),
    );
    outcome.attempted = attempted.max(completed);
    outcome.failed = wrong;
    outcome
}

/// `session()` + three region registrations + `close()`, repeated; median
/// milliseconds per cycle.
fn session_cycles(serve: &ServeEngine, tracer: &Tracer) -> Measured {
    let cycles: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            tracer.span("serve.session_cycle", "serve", "", 0, || {
                let mut session = serve.session().expect("service still admits sessions");
                let register = "fresh session namespace";
                session
                    .register_zeros::<f32>("in", PAYLOAD_ELEMS)
                    .expect(register);
                session
                    .register_zeros::<f32>("mid", PAYLOAD_ELEMS)
                    .expect(register);
                session.register_zeros::<f64>("cell", 1).expect(register);
                session.close().expect("an idle session closes");
            });
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Measured::of(&cycles)
}

fn end_to_end(out: &mut Metrics, setup: &[f64], load: &Load, on: &[Phase], off: &[Phase]) {
    let walls = |phases: &[Phase]| phases.iter().map(|p| p.seconds).collect::<Vec<_>>();
    let wall = Measured::of(&walls(on));
    let baseline = Measured::of(&walls(off));
    let mid = load.mid_total();
    let (completed, wrong) = load
        .all()
        .chain(on)
        .chain(off)
        .fold((0u64, 0u64), |acc, p| {
            (acc.0 + p.completed, acc.1 + p.wrong)
        });
    let outside_sat_attempted = load.lo.attempted + mid.attempted;
    // `lo` and `mid` hold what the service cannot take, so only a wrong
    // result fails a request there.
    let outside_sat_failed = load.lo.wrong + mid.wrong;
    out.set("setup_s", Measured::of(setup));
    out.set("wall_s", wall);
    out.set("baseline_wall_s", baseline);
    out.single("speedup_geomean", baseline.value / wall.value);
    out.single(
        "tasks_per_s",
        load.sat.tasks_finished as f64 / load.sat.seconds,
    );
    out.single(
        "correctness_pct",
        100.0 * (completed - wrong) as f64 / completed.max(1) as f64,
    );
    out.single(
        "reuse_pct",
        100.0 * load.engine.reused() as f64 / load.engine.seen.max(1) as f64,
    );
    out.single(
        "ok_share",
        1.0 - outside_sat_failed as f64 / outside_sat_attempted.max(1) as f64,
    );
    out.single("peak_rss_mb", peak_rss_mib());
    out.set("req_p50_us", load.mid_p(50.0));
    out.set("req_p99_us", load.mid_quiet(99.0));
    out.single("sat_goodput_rps", load.sat.goodput_rps());
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Metrics,
    workers: usize,
    load: &Load,
    traced: &[Phase],
    untraced: &[Phase],
    observation: &Observation,
    data: &TraceData,
    warm: &Warm,
    load_ms: f64,
    session_cycle_ms: Measured,
) {
    let w = workers as f64;
    let engine = observation.engine.unwrap_or_default();
    let store = observation.store.unwrap_or_default();
    let runtime = observation.runtime;
    // Worker time of the traced service: every phase it served.
    let busy_s: f64 = load.all().chain(traced).map(|p| p.seconds).sum();
    let finished = finished_tasks(&runtime).max(1) as f64;
    let payload_bytes = (PAYLOAD_ELEMS * 4) as f64;
    out.single("core.key.hash_s_total", engine.hash_ns as f64 / 1e9);
    out.single(
        "core.key.hash_share",
        engine.hash_ns as f64 / (w * busy_s * 1e9),
    );
    out.single("core.engine.copy_s_total", engine.copy_ns as f64 / 1e9);
    out.single(
        "core.engine.copy_ns_per_byte",
        engine.copy_ns as f64 / (engine.reused() as f64 * payload_bytes).max(1.0),
    );
    out.single("core.engine.seen", engine.seen as f64);
    out.single("core.engine.tht_hits", engine.tht_bypassed as f64);
    out.single("core.engine.executed", engine.executed as f64);
    out.single(
        "core.engine.hit_ratio",
        engine.tht_bypassed as f64 / engine.seen.max(1) as f64,
    );
    out.single("core.ikt.deferred", engine.ikt_deferred as f64);
    out.single("core.training.final_p_geomean", 1.0);
    out.single("store.hits", store.hits as f64);
    out.single("store.misses", store.misses as f64);
    out.single("store.insertions", store.insertions as f64);
    out.single("store.evictions", store.evictions as f64);
    out.single(
        "store.rejected_admissions",
        store.rejected_admissions as f64,
    );
    out.single(
        "store.hit_ratio",
        store.hits as f64 / (store.hits + store.misses).max(1) as f64,
    );
    out.single(
        "store.resident_mb",
        store.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    out.single("store.entries", store.entries as f64);
    out.single("store.saved_kernel_s", store.saved_ns as f64 / 1e9);
    out.single("store.persist.save_ms", warm.save_ms);
    out.single("store.persist.load_ms", load_ms);
    out.single("store.persist.snapshot_mb", warm.snapshot_mb);
    let admitted: u64 = load.all().chain(traced).map(|p| p.admitted).sum();
    out.single(
        "runtime.submit_ns_per_task",
        data.total_ns("serve.submit") / (2 * admitted.max(1)) as f64,
    );
    out.single("runtime.kernel_s_total", runtime.kernel_ns as f64 / 1e9);
    out.single(
        "runtime.overhead_ns_per_task",
        (w * busy_s * 1e9 - (runtime.kernel_ns + engine.hash_ns + engine.copy_ns) as f64)
            / finished,
    );
    // Dispatch: `submit()` return → the request's first kernel entering
    // (`transform` on a miss, `fold` on a hit), during `lo` and `mid`: past
    // saturation and in the closed-loop replays that wait is queueing.
    let entered = data.first_start_by_id(&["kernel.transform", "kernel.fold"]);
    let dispatch: Vec<f64> = data
        .spans
        .iter()
        .filter(|(_, s)| s.name == "serve.submit" && s.start_ns < load.sat_started_ns)
        .filter_map(|(_, s)| {
            entered
                .get(&s.id)
                .map(|e| e.saturating_sub(s.end_ns) as f64)
        })
        .collect();
    out.single("runtime.dispatch_ns_p50", median(&dispatch));
    out.single(
        "runtime.dispatch_ns_p99",
        percentile_sorted(&sorted(&dispatch), 99.0),
    );
    out.single(
        "runtime.region_write_ns",
        data.p50_ns("runtime.region_write"),
    );
    out.single("runtime.submitted", runtime.submitted as f64);
    out.single("runtime.executed", runtime.executed as f64);
    out.single("runtime.bypassed", runtime.bypassed as f64);
    out.single("runtime.deferred", runtime.deferred as f64);
    out.single("serve.submit_ns_p50", data.p50_ns("serve.submit"));
    out.single("serve.submit_ns_p99", data.p99_ns("serve.submit"));
    let mut offered = Phase::default();
    for phase in load.all() {
        offered.absorb(phase);
    }
    out.single("serve.admitted", offered.admitted as f64);
    out.single("serve.rejected", offered.overloaded as f64);
    out.single("serve.no_lane", offered.no_lane as f64);
    out.single("serve.held", offered.held as f64);
    out.single("serve.lo.req_p50_us", load.lo.p(50.0));
    out.single("serve.lo.req_p99_us", load.lo.p(99.0));
    // The median window's p99 beside the lower-quartile window's that
    // `req_p99_us` reports: a tail that got worse in most windows but spared
    // a quarter of them shows here.
    out.set("serve.mid.req_p99_us", load.mid_p(99.0));
    out.single("serve.sat.req_p99_us", load.sat.p(99.0));
    out.single("serve.sat.rejected_share", load.sat.refused_share());
    let mid = load.mid_total();
    let mid_ok = load.mid_quiet(99.0).value <= P99_LIMIT_US && mid.takes_the_rate();
    let max_rate_ok = [
        (load.sat.within_limit(), RATE_SAT_PER_WORKER),
        (mid_ok, RATE_MID_PER_WORKER),
        (load.lo.within_limit(), RATE_LO_PER_WORKER),
    ]
    .iter()
    .find(|(ok, _)| *ok)
    .map_or(0.0, |(_, rate)| rate * w);
    out.single("serve.max_rate_ok_rps", max_rate_ok);
    out.set("serve.session_cycle_ms", session_cycle_ms);
    out.single("serve.drain_ms", data.total_ns("serve.drain") / 1e6);
    let traced_wall = Measured::of(&traced.iter().map(|p| p.seconds).collect::<Vec<_>>());
    let untraced_wall = Measured::of(&untraced.iter().map(|p| p.seconds).collect::<Vec<_>>());
    out.single(
        "obs.traced_overhead_pct",
        100.0 * (traced_wall.value / untraced_wall.value - 1.0),
    );
    let late = sorted(&mid.late_us);
    out.single("bench.gen_late_p99_us", percentile_sorted(&late, 99.0));
    out.single("bench.gen_late_max_us", late.last().copied().unwrap_or(0.0));
    out.single("bench.round_spread_pct", 100.0 * load.mid_p(50.0).spread());
    out.single(
        "bench.rounds",
        (load.mid.len() + traced.len() + untraced.len()) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool(seed: u64) -> Pool {
        Pool::generate(seed, 64)
    }

    #[test]
    fn pool_is_deterministic_per_seed_and_expected_values_follow_the_kernels() {
        let (a, b, c) = (small_pool(1), small_pool(1), small_pool(2));
        assert_eq!(a.payloads, b.payloads);
        assert_ne!(a.payloads, c.payloads);
        assert_eq!(a.expected[3], fold(&transform(a.payload(3))));
    }

    #[test]
    fn mid_readings_carry_the_spread_of_blocks_not_of_windows() {
        // Sixteen windows of one request each: latencies 1, 2, … 16 µs.
        let window = |latency: f64| Phase {
            latency_us: vec![latency],
            ..Phase::default()
        };
        let load = Load {
            lo: Phase::default(),
            mid: (1..=16).map(|i| window(f64::from(i))).collect(),
            sat: Phase::default(),
            sat_started_ns: 0,
            engine: EngineObservation::default(),
        };
        let p50 = load.mid_p(50.0);
        assert_eq!((p50.value, p50.n), (8.5, 16));
        // Eight blocks of two windows: medians 1.5, 3.5, … 15.5.
        assert_eq!(
            (p50.q1, p50.q3),
            quartiles(&[1.5, 3.5, 5.5, 7.5, 9.5, 11.5, 13.5, 15.5])
        );
        let windows: Vec<f64> = (1..=16).map(f64::from).collect();
        let quiet = load.mid_quiet(99.0);
        assert_eq!(quiet.value, quartiles(&windows).0);
        assert!(quiet.value < p50.value && quiet.q1 < quiet.q3);
    }

    #[test]
    fn closed_loop_requests_complete_verified_and_memoize_repeats() {
        let pool = small_pool(4);
        let (serve, endpoints) = service(1, true, None);
        let mut client = Client::open(&serve, endpoints, &pool, None);
        let phase = client.closed_loop(300, "test/closed", 4);
        assert_eq!((phase.completed, phase.wrong, phase.refused()), (300, 0, 0));
        assert_eq!(phase.tasks_finished, 600);
        client.close();
        let observation = serve.drain();
        let engine = observation.engine.unwrap();
        let store = observation.store.unwrap();
        assert_eq!(engine.seen, 300);
        assert!(
            engine.reused() > 150,
            "64 payloads, 300 requests: most repeat"
        );
        assert_eq!(store.hits + store.misses, engine.seen);
    }

    #[test]
    fn a_corrupted_expected_value_is_counted_wrong() {
        let mut pool = small_pool(4);
        for value in &mut pool.expected {
            *value += 1.0;
        }
        let (serve, endpoints) = service(1, false, None);
        let mut client = Client::open(&serve, endpoints, &pool, None);
        let phase = client.closed_loop(10, "test/corrupt", 4);
        assert_eq!((phase.completed, phase.wrong), (10, 10));
        client.close();
        serve.drain();
    }

    #[test]
    fn open_loop_sheds_load_past_saturation_and_times_from_due() {
        let pool = small_pool(6);
        let (serve, endpoints) = service(1, false, None);
        let mut client = Client::open(&serve, endpoints, &pool, None);
        // 150 us of spin per request caps one worker near 6 500/s.
        let phase = client.open_loop(40_000.0, 0.25, "test/sat", 6, Overflow::Shed);
        assert!(
            phase.refused() > 0,
            "offered load far above capacity must be shed"
        );
        assert_eq!(phase.admitted, phase.completed);
        assert_eq!(phase.wrong, 0);
        assert_eq!(phase.attempted, phase.admitted + phase.refused());
        assert_eq!(phase.late_us.len() as u64, phase.attempted);
        assert!(phase.p(50.0) >= TRANSFORM_SPIN_US as f64);
        client.close();
        serve.drain();
    }

    #[test]
    fn open_loop_holds_what_the_service_cannot_take_and_fails_nothing() {
        let pool = small_pool(7);
        let (serve, endpoints) = service(1, false, None);
        let mut client = Client::open(&serve, endpoints, &pool, None);
        // Three times one worker's capacity: the window fills, arrivals wait.
        let phase = client.open_loop(20_000.0, 0.1, "test/hold", 7, Overflow::Hold);
        assert!(phase.held > 0, "the admission window must have filled");
        assert_eq!(phase.refused(), 0);
        assert_eq!(
            (phase.admitted, phase.completed, phase.wrong),
            (phase.attempted, phase.attempted, 0)
        );
        assert_eq!(phase.late_us.len() as u64, phase.attempted);
        assert!(!phase.takes_the_rate());
        // The held arrivals waited out the backlog, from their due time.
        assert!(phase.p(99.0) > 50_000.0);
        client.close();
        serve.drain();
    }

    #[test]
    fn traced_requests_share_their_sequence_number_across_layers() {
        let pool = small_pool(8);
        let tracer = Arc::new(Tracer::new());
        let trace = ServeTrace::new(Arc::clone(&tracer));
        let (serve, endpoints) = service(1, true, Some(&trace));
        let mut client = Client::open(&serve, endpoints, &pool, Some(&trace));
        let phase = client.closed_loop(50, "test/traced", 8);
        assert_eq!(phase.completed, 50);
        client.close();
        serve.drain();
        let data = tracer.drain();
        assert_eq!(data.durations_ns("serve.submit").len(), 50);
        assert_eq!(data.durations_ns("runtime.region_write").len(), 50);
        assert_eq!(data.durations_ns("request").len(), 50);
        assert_eq!(data.durations_ns("kernel.fold").len(), 50);
        let first_kernel = data.first_start_by_id(&["kernel.transform", "kernel.fold"]);
        assert_eq!(
            first_kernel.len(),
            50,
            "every request's kernels carry its id"
        );
        assert!(!first_kernel.contains_key(&0));
    }
}
