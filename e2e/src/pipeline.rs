//! The pipeline under test, wired as `spliced` wires it, plus the one
//! piece of benchmark code that runs inside it: the feed closure.
//!
//! `ControlPlane` + `run_event_loop` on one thread, `run_live` workers
//! subscribed to its `SnapshotHub` on others, telemetry attached as the
//! daemon attaches it. The benchmark only supplies what the daemon's
//! callers supply — events on the control channel and a burst feed — and
//! observes from there.

use crate::oracle::{digest, Oracle};
use crate::traced::{self, TraceOut};
use crate::workload::{Workload, BURST, DEPLOY_SEED, K, MAX_BATCH, RING_BURSTS};
use splice_core::control::{
    control_channel, run_event_loop, ControlHandle, ControlPlane, EventLoopReport,
};
use splice_core::forwarding::ForwarderOptions;
use splice_core::header::ForwardingBits;
use splice_core::slices::{Splicing, SplicingConfig};
use splice_dataplane::{run_live, ForwardTelemetry, LiveShardReport};
use splice_graph::{EdgeMask, Graph};
use splice_routing::spf::SpfTelemetry;
use splice_routing::SnapshotHub;
use splice_telemetry::{FlightRecorder, Registry};
use splice_traffic::{FlowConfig, FlowGen};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One packet as the forwarding engines take it.
pub type Pkt = (u32, u32, ForwardingBits);

/// Forwarding workers: one core is left to the event loop.
pub fn worker_count() -> usize {
    available_parallelism().saturating_sub(1).clamp(1, 3)
}

/// Cores the process may use (1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A built deployment: the set-up's first two stages.
pub struct Deployment {
    /// The graph events and packets refer to.
    pub g: Graph,
    /// The freshly built slices every control plane starts from.
    pub base: Splicing,
    /// Seconds `splice_topology::resolve` took.
    pub resolve_s: f64,
    /// Seconds `Splicing::build` took.
    pub build_s: f64,
}

/// Resolve the topology and build the slices (from [`DEPLOY_SEED`]: the
/// network is the same on every run), timing both.
pub fn deploy(w: &Workload, topology: &str) -> Result<Deployment, String> {
    let t0 = Instant::now();
    let g = splice_topology::resolve(topology)
        .map_err(|e| e.to_string())?
        .graph();
    let resolve_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let cfg = SplicingConfig::degree_based(K, 0.0, 3.0).with_strategy(w.strategy);
    let base = Splicing::build(&g, &cfg, DEPLOY_SEED);
    Ok(Deployment {
        g,
        base,
        resolve_s,
        build_s: t1.elapsed().as_secs_f64(),
    })
}

/// The ring of pre-generated bursts the feed serves, so that packet
/// generation is not on the measured path. Returns the ring and the
/// seconds `FlowStream::fill_burst` took to fill it.
pub fn burst_ring(nodes: u32, seed: u64) -> (Vec<Vec<Pkt>>, f64) {
    let gen = FlowGen::new(FlowConfig::new(nodes, K, seed));
    let mut stream = gen.stream(0);
    let mut ring = vec![Vec::new(); RING_BURSTS];
    let t0 = Instant::now();
    for burst in &mut ring {
        stream.fill_burst(BURST, burst);
    }
    (ring, t0.elapsed().as_secs_f64())
}

/// A worker saw the FIB of schedule prefix `prefix` for the first time.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Events the FIB contains.
    pub prefix: usize,
    /// The hub epoch it was published under.
    pub epoch: u64,
    /// Stamped before the burst that was then fed on it.
    pub at: Instant,
}

/// What one worker's feed has observed.
#[derive(Debug, Default)]
pub struct ShardObs {
    last_epoch: u64,
    last_prefix: usize,
    /// Epoch changes, in order, resolved to schedule prefixes.
    pub steps: Vec<Step>,
    /// Bursts fed in total.
    pub bursts: u64,
    /// Bursts fed while the measurement window was open.
    pub window_bursts: u64,
    /// The first FIB no schedule prefix explains, if any.
    pub divergence: Option<String>,
}

/// State the feed closure shares with the generator thread.
pub struct Shared {
    oracle: Arc<Oracle>,
    ring: Arc<Vec<Vec<Pkt>>>,
    hub: Arc<SnapshotHub>,
    shards: Vec<Mutex<ShardObs>>,
    /// Largest prefix any worker has resolved.
    pub resolved: AtomicUsize,
    /// Events handed to the control channel so far (stored *before* the
    /// send, so a FIB can never hold an event this does not count).
    pub sent: AtomicUsize,
    /// Whether fed bursts count towards `forward_mpps`.
    pub counting: AtomicBool,
    /// Set once any worker has met a FIB the oracle cannot explain.
    pub diverged: AtomicBool,
    /// When the first burst had been forwarded (the end of set-up).
    pub first_burst: OnceLock<Instant>,
}

impl Shared {
    /// Called by each worker immediately before its `refresh()` +
    /// `forward_burst`: note an epoch change, then serve a burst.
    ///
    /// The observation is early by at most one burst: a publish that
    /// lands between this call and the worker's `refresh()` is stamped
    /// on the next call although this burst already ran on it, and one
    /// caught between the hub's cell install and its fan-out is stamped
    /// now although this burst still runs on the old FIB.
    pub fn feed(&self, shard: usize, burst: u64, buf: &mut Vec<Pkt>) {
        if burst == 1 {
            self.first_burst.get_or_init(Instant::now);
        }
        let mut obs = self.shards[shard].lock().expect("shard lock poisoned");
        if self.hub.epoch() != obs.last_epoch {
            self.observe(&mut obs);
        }
        obs.bursts += 1;
        if self.counting.load(Ordering::Relaxed) {
            obs.window_bursts += 1;
        }
        buf.extend_from_slice(&self.ring[(shard * 131 + burst as usize) % self.ring.len()]);
    }

    fn observe(&self, obs: &mut ShardObs) {
        let at = Instant::now();
        // An (epoch, arena) pair that belong together: the cell bumps
        // its version under the write lock, so an unchanged version
        // around the load means no publish completed in between.
        let (epoch, fib) = loop {
            let before = self.hub.epoch();
            let fib = self.hub.load();
            if self.hub.epoch() == before {
                break (before, fib);
            }
        };
        let seen = digest(&fib);
        drop(fib);
        obs.last_epoch = epoch;
        let floor = (obs.last_prefix + 1).max(epoch as usize);
        let sent = self.sent.load(Ordering::Acquire);
        let problem = match self.oracle.resolve(floor, seen) {
            Some(prefix) if prefix <= sent => {
                obs.last_prefix = prefix;
                obs.steps.push(Step { prefix, epoch, at });
                self.resolved.fetch_max(prefix, Ordering::Release);
                return;
            }
            Some(prefix) => {
                format!("epoch {epoch}: FIB holds event {prefix} but only {sent} had been sent")
            }
            None => {
                format!("epoch {epoch}: FIB digest {seen:016x} is no schedule prefix >= {floor}")
            }
        };
        obs.divergence.get_or_insert(problem);
        self.diverged.store(true, Ordering::Release);
    }

    /// Lock and read one worker's observations.
    pub fn shard(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardObs> {
        self.shards[shard].lock().expect("shard lock poisoned")
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }
}

/// A running pipeline.
pub struct Pipeline {
    /// Feed-side observations.
    pub shared: Arc<Shared>,
    /// The control channel's sending half.
    pub handle: ControlHandle,
    stop: Arc<AtomicBool>,
    event_loop: JoinHandle<(ControlPlane, EventLoopReport)>,
    workers: JoinHandle<Vec<LiveShardReport>>,
}

/// A pipeline after teardown.
pub struct Finished {
    /// The control plane, for its final deployment and counters.
    pub cp: ControlPlane,
    /// What the event loop reported.
    pub loop_report: EventLoopReport,
    /// Per-worker forwarding reports.
    pub shards: Vec<LiveShardReport>,
    /// Feed-side observations.
    pub shared: Arc<Shared>,
    /// When the workers had stopped.
    pub stopped_at: Instant,
}

/// Set-up stages 3 to 5: control plane, event loop, workers. With
/// `trace` the benchmark's own span-recording loops (same public calls,
/// same order) stand in for `run_event_loop` and `run_live`.
pub fn launch(
    dep: &Deployment,
    oracle: &Arc<Oracle>,
    ring: &Arc<Vec<Vec<Pkt>>>,
    trace: Option<Arc<TraceOut>>,
) -> Pipeline {
    let registry = Registry::new();
    let spf_tel = SpfTelemetry::register(&registry).with_flight(FlightRecorder::new(1024));
    let latency = registry.histogram_seconds(
        "spliced_event_visible_seconds",
        "Event enqueue to FIB-visible publish",
    );
    let fwd_tel = ForwardTelemetry::register(&registry);

    let cp = ControlPlane::new(dep.g.clone(), dep.base.clone(), MAX_BATCH).with_telemetry(spf_tel);
    let hub = Arc::clone(cp.hub());
    let (handle, rx) = control_channel();
    let stop = Arc::new(AtomicBool::new(false));
    let workers = worker_count();
    let shared = Arc::new(Shared {
        oracle: Arc::clone(oracle),
        ring: Arc::clone(ring),
        hub: Arc::clone(&hub),
        shards: (0..workers).map(|_| Mutex::default()).collect(),
        resolved: AtomicUsize::new(0),
        sent: AtomicUsize::new(0),
        counting: AtomicBool::new(false),
        diverged: AtomicBool::new(false),
        first_burst: OnceLock::new(),
    });

    let event_loop = {
        let trace = trace.clone();
        std::thread::spawn(move || match trace {
            None => run_event_loop(cp, rx, Some(&latency)),
            Some(out) => traced::event_loop(cp, rx, &latency, &out),
        })
    };
    let worker_threads = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        let mask = EdgeMask::all_up(dep.g.edge_count());
        std::thread::spawn(move || {
            let feed =
                |shard: usize, burst: u64, buf: &mut Vec<Pkt>| shared.feed(shard, burst, buf);
            let opts = ForwarderOptions::default();
            match trace {
                None => run_live(workers, opts, &hub, &mask, Some(&fwd_tel), &stop, feed),
                Some(out) => {
                    traced::live_workers(workers, opts, &hub, &mask, &fwd_tel, &stop, feed, &out)
                }
            }
        })
    };
    Pipeline {
        shared,
        handle,
        stop,
        event_loop,
        workers: worker_threads,
    }
}

impl Pipeline {
    /// Block until the first burst has been forwarded; returns when that
    /// was.
    fn await_first_burst(&self) -> Instant {
        loop {
            if let Some(at) = self.shared.first_burst.get() {
                return *at;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Wait until every FIB-changing event up to `target` is visible to
    /// some worker; give up on a divergence or after `timeout`. Returns
    /// whether it was reached.
    pub fn await_visible(&self, target: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.shared.resolved.load(Ordering::Acquire) < target {
            if self.shared.diverged.load(Ordering::Acquire) || Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        true
    }

    /// Tear down in the daemon's order: stop the workers, then flush and
    /// stop the event loop.
    pub fn finish(self) -> Finished {
        self.stop.store(true, Ordering::SeqCst);
        let shards = self.workers.join().expect("forwarding workers panicked");
        let stopped_at = Instant::now();
        self.handle.shutdown();
        let (cp, loop_report) = self.event_loop.join().expect("control event loop panicked");
        Finished {
            cp,
            loop_report,
            shards,
            shared: self.shared,
            stopped_at,
        }
    }
}

/// One cold set-up, timed end to end: resolve, build, control plane,
/// loop and workers spawned, first burst forwarded.
pub struct ColdSetup {
    /// The running pipeline.
    pub pipeline: Pipeline,
    /// The deployment it runs.
    pub dep: Deployment,
    /// Seconds from before `resolve` to the first burst forwarded.
    pub total_s: f64,
    /// When that first burst had been forwarded.
    pub first_burst: Instant,
}

/// Perform one cold set-up.
pub fn cold_setup(
    w: &Workload,
    topology: &str,
    oracle: &Arc<Oracle>,
    ring: &Arc<Vec<Vec<Pkt>>>,
    trace: Option<Arc<TraceOut>>,
) -> Result<ColdSetup, String> {
    let t0 = Instant::now();
    let dep = deploy(w, topology)?;
    let pipeline = launch(&dep, oracle, ring, trace);
    let first_burst = pipeline.await_first_burst();
    Ok(ColdSetup {
        pipeline,
        dep,
        total_s: first_burst.duration_since(t0).as_secs_f64(),
        first_burst,
    })
}
