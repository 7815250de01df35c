//! The served workloads: `repro serve` replicas (and a `repro route`
//! router) started as separate processes, driven by the closed-loop load
//! generator, every reply checked against an in-process oracle.

use std::collections::HashMap;
use std::net::TcpStream;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hmdiv_core::SequentialModel;
use hmdiv_fleet::{mix64, HashRing, RouterConfig};
use hmdiv_serve::json::Json;
use hmdiv_serve::Registry;

use crate::inputs::{
    body_tail, class_names, request_line, scenario_sweep, scenarios, scenarios_json, ModelSpec,
    ProfileSpec, Rng,
};
use crate::layers;
use crate::ledger::Ledger;
use crate::loadgen::{self, check_reply, Expect, Mix, Request};
use crate::procs::{call, connect, Proc};
use crate::report::{Env, Outcome};

/// Flight-recorder capacity for traced replicas. The ring keeps the most
/// recent records; `trace.sampled_share` reports how many of the
/// window's requests it still held when drained.
const TRACE_CAPACITY: &str = "32768";
/// Fresh-model loads timed after the window where the mix has no
/// writes, and the pause before each.
const WRITE_PROBE_LOADS: u64 = 400;
const WRITE_PROBE_PACE: Duration = Duration::from_millis(1);
/// `scenarios` per `sweep_bulk` request, and distinct request lines.
const SWEEP_SCENARIOS: usize = 1000;
const SWEEP_LINES: usize = 8;
const SWEEP_CLASSES: usize = 64;
const FLEET_CLASSES: usize = 16;
const FLEET_BASE_MODELS: usize = 4;
/// Distinct fresh models each `fleet_mixed` connection loads before its
/// loads repeat, so registry size (and memory) does not track throughput.
const FLEET_FRESH_MODELS: usize = 256;

/// A served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    SweepBulk,
    FleetMixed,
}

impl Served {
    fn replicas(self) -> usize {
        if self == Served::FleetMixed {
            2
        } else {
            1
        }
    }

    fn routed(self) -> bool {
        self == Served::FleetMixed
    }

    /// Requests each connection keeps in flight.
    fn depth(self) -> usize {
        match self {
            Served::SweepBulk => 4,
            Served::FleetMixed => 8,
        }
    }
}

/// The processes, connections and traffic of one set-up.
struct Stack {
    replicas: Vec<Proc>,
    router: Option<Proc>,
    conns: Vec<TcpStream>,
    traffic: Box<dyn Mix>,
    /// Every model the traffic names, by registry id (for the replays).
    models: HashMap<String, SequentialModel>,
    next_id: u64,
}

impl Stack {
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kib = 0;
        for p in self.replicas.iter().chain(&self.router) {
            kib += p.peak_rss_kib()?;
        }
        Ok(kib as f64 / 1024.0)
    }

    /// One blocking request on connection `conn`, checked.
    fn call(&mut self, conn: usize, tail: &str, expect: &Expect) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        let reply = call(&mut self.conns[conn], &request_line(id, tail))?;
        check_reply(id, expect, &reply).map(drop)
    }
}

/// The registry content id a replica must report for `spec`, computed
/// by the same registry code in this process.
fn content_id(spec: &ModelSpec) -> Result<String, String> {
    Registry::new()
        .load_sequential(spec.params(), None)
        .map(|receipt| receipt.id)
        .map_err(|e| format!("in-process load: {e}"))
}

fn evaluate_tail(id: &str, profile: &ProfileSpec) -> Rc<str> {
    body_tail(vec![
        ("verb".to_owned(), Json::str("evaluate")),
        ("model".to_owned(), Json::str(id)),
        ("profile".to_owned(), profile.json()),
    ])
    .into()
}

/// A fixed set of requests, cycled per connection.
struct Pool {
    requests: Vec<Request>,
    cursor: Vec<usize>,
}

impl Mix for Pool {
    fn next(&mut self, conn: usize) -> Request {
        let i = self.cursor[conn];
        self.cursor[conn] = (i + 1) % self.requests.len();
        self.requests[i].clone()
    }
}

/// A model the fleet mix may read: its id, compiled form for compare
/// oracles, and the expected evaluation under the mix's profile.
struct FleetModel {
    id: String,
    model: SequentialModel,
    failure_bits: u64,
    evaluate: Rc<str>,
    load: Rc<str>,
}

impl FleetModel {
    fn new(spec: &ModelSpec, profile: &ProfileSpec) -> Result<FleetModel, String> {
        let model = spec.model();
        let bound = model
            .compiled()
            .bind_profile(&profile.profile())
            .map_err(|e| e.to_string())?;
        let id = content_id(spec)?;
        Ok(FleetModel {
            failure_bits: model.compiled().system_failure(&bound).value().to_bits(),
            evaluate: evaluate_tail(&id, profile),
            load: spec.load_body().into(),
            id,
            model,
        })
    }
}

struct FleetConn {
    rng: Rng,
    sent: u64,
    /// The fresh models this connection has generated so far.
    fresh: Vec<Rc<FleetModel>>,
    /// This connection's loads with the position they were sent at.
    loads: Vec<(u64, Rc<FleetModel>)>,
}

/// The seeded `fleet_mixed` mix: ~80% `evaluate`, ~10% `load` of a fresh
/// model (repeating after [`FLEET_FRESH_MODELS`]), ~10% `compare`. Reads name only models whose load reply has
/// already arrived: with `depth` in flight, request `i` can rely on
/// every reply up to `i - depth`.
struct FleetMix {
    seed: u64,
    names: Vec<String>,
    profile: ProfileSpec,
    depth: u64,
    base: Vec<Rc<FleetModel>>,
    conns: Vec<FleetConn>,
}

impl FleetMix {
    fn pick(&mut self, conn: usize) -> Rc<FleetModel> {
        let st = &mut self.conns[conn];
        let confirmed = st
            .loads
            .partition_point(|(at, _)| at + self.depth < st.sent);
        let i = st.rng.below(self.base.len() + confirmed);
        match i.checked_sub(self.base.len()) {
            None => Rc::clone(&self.base[i]),
            Some(j) => Rc::clone(&st.loads[j].1),
        }
    }
}

impl Mix for FleetMix {
    fn next(&mut self, conn: usize) -> Request {
        self.conns[conn].sent += 1;
        let roll = self.conns[conn].rng.unit();
        if roll < 0.1 {
            let st = &mut self.conns[conn];
            let k = st.loads.len() % FLEET_FRESH_MODELS;
            if k == st.fresh.len() {
                let stream = (conn as u64 + 1) << 40 | k as u64;
                let spec = ModelSpec::random(&mut Rng::new(self.seed, stream), &self.names);
                st.fresh.push(Rc::new(
                    FleetModel::new(&spec, &self.profile).expect("generated models pass admission"),
                ));
            }
            let model = Rc::clone(&st.fresh[k]);
            st.loads.push((st.sent, Rc::clone(&model)));
            return Request {
                tail: Rc::clone(&model.load),
                write: true,
                expect: Expect::Receipt(model.id.clone()),
            };
        }
        if roll < 0.2 {
            let baseline = self.pick(conn);
            let mut candidate = self.pick(conn);
            while candidate.id == baseline.id {
                candidate = self.pick(conn);
            }
            let cmp =
                hmdiv_analyze::compare(baseline.model.compiled(), candidate.model.compiled(), &[]);
            return Request {
                tail: body_tail(vec![
                    ("verb".to_owned(), Json::str("compare")),
                    ("baseline".to_owned(), Json::str(baseline.id.as_str())),
                    ("candidate".to_owned(), Json::str(candidate.id.as_str())),
                ])
                .into(),
                write: false,
                expect: Expect::Verdict {
                    verdict: cmp.verdict.label(),
                    uniform: cmp.uniform.map(|u| u.label()),
                },
            };
        }
        let model = self.pick(conn);
        Request {
            tail: Rc::clone(&model.evaluate),
            write: false,
            expect: Expect::Failure(model.failure_bits),
        }
    }
}

/// The router's ring key for a client connection: the peer address it
/// sees, hashed exactly as `hmdiv-fleet`'s router does.
fn ring_backend(ring: &HashRing, conn: &TcpStream) -> Result<u32, String> {
    let local = conn.local_addr().map_err(|e| e.to_string())?;
    let ip = match local.ip() {
        std::net::IpAddr::V4(ip) => u64::from(u32::from(ip)),
        std::net::IpAddr::V6(_) => return Err("the fleet runs on IPv4 loopback".into()),
    };
    Ok(ring.route(mix64(ip ^ (u64::from(local.port()) << 48))))
}

/// Connects `count` clients through the router, reconnecting until each
/// lands on a different replica, so every run has the same topology.
fn spread_connections(
    router: &Proc,
    count: usize,
    replicas: usize,
) -> Result<Vec<TcpStream>, String> {
    let ring = HashRing::new(replicas, RouterConfig::default().vnodes);
    let mut taken = vec![false; replicas];
    let mut conns = Vec::with_capacity(count);
    for _attempt in 0..1000 {
        if conns.len() == count {
            return Ok(conns);
        }
        let conn = connect(router.addr)?;
        let backend = ring_backend(&ring, &conn)? as usize;
        if !taken[backend] {
            taken[backend] = true;
            conns.push(conn);
        }
    }
    Err("could not spread the connections across the replicas".into())
}

/// The workload's seeded traffic over `connections`, and the models it
/// needs loaded first.
fn traffic(
    env: &Env,
    work: Served,
    connections: usize,
) -> Result<(Vec<ModelSpec>, Box<dyn Mix>), String> {
    let mut rng = Rng::new(env.seed, 1);
    Ok(match work {
        Served::SweepBulk => {
            let names = class_names(SWEEP_CLASSES);
            let spec = ModelSpec::random(&mut rng, &names);
            let profile = ProfileSpec::random(&mut rng, &names);
            let model = spec.model();
            let compiled = model.compiled();
            let bound = compiled
                .bind_profile(&profile.profile())
                .map_err(|e| e.to_string())?;
            let id = content_id(&spec)?;
            let mut requests = Vec::with_capacity(SWEEP_LINES);
            for _ in 0..SWEEP_LINES {
                let sweep = scenario_sweep(&mut rng, &names, SWEEP_SCENARIOS);
                let expected = compiled
                    .evaluate_scenarios(&scenarios(&sweep), &bound)
                    .map_err(|e| e.to_string())?;
                requests.push(Request {
                    tail: body_tail(vec![
                        ("verb".to_owned(), Json::str("scenarios")),
                        ("model".to_owned(), Json::str(id.as_str())),
                        ("profile".to_owned(), profile.json()),
                        ("scenarios".to_owned(), scenarios_json(&sweep)),
                    ])
                    .into(),
                    write: false,
                    expect: Expect::Failures(Rc::new(
                        expected.iter().map(|p| p.value().to_bits()).collect(),
                    )),
                });
            }
            let cursor = (0..connections)
                .map(|c| c * SWEEP_LINES / connections)
                .collect();
            (vec![spec], Box::new(Pool { requests, cursor }))
        }
        Served::FleetMixed => {
            let names = class_names(FLEET_CLASSES);
            let profile = ProfileSpec::random(&mut rng, &names);
            let specs: Vec<ModelSpec> = (0..FLEET_BASE_MODELS)
                .map(|_| ModelSpec::random(&mut rng, &names))
                .collect();
            let base = specs
                .iter()
                .map(|s| FleetModel::new(s, &profile).map(Rc::new))
                .collect::<Result<_, _>>()?;
            let mix = FleetMix {
                seed: env.seed,
                names,
                profile,
                depth: work.depth() as u64,
                base,
                conns: (0..connections)
                    .map(|c| FleetConn {
                        rng: Rng::new(env.seed, 2 + c as u64),
                        sent: 0,
                        fresh: Vec::new(),
                        loads: Vec::new(),
                    })
                    .collect(),
            };
            (specs, Box::new(mix))
        }
    })
}

/// Builds the inputs, starts the processes, loads the models and gets a
/// first correct reply on every connection.
fn set_up(env: &Env, work: Served, traced: bool) -> Result<Stack, String> {
    let connections = env.nproc.min(2);
    let (specs, traffic) = traffic(env, work, connections)?;
    let threads = env.nproc.to_string();
    // A fleet replica serves one connection, the router's: a second
    // poller would only spin through idle backoff.
    let pollers = if work.routed() {
        "1".to_owned()
    } else {
        threads.clone()
    };
    let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--threads", &threads]
        .into_iter()
        .chain(["--pollers", &pollers])
        .map(str::to_owned)
        .collect();
    if work == Served::SweepBulk {
        // 2 connections x depth 4 x 1,000 scenarios stays under 16,384,
        // so nothing sheds.
        args.extend(["--queue-capacity".to_owned(), "16384".to_owned()]);
    }
    if traced {
        args.extend(["--trace", TRACE_CAPACITY, "--metrics"].map(str::to_owned));
    }
    let mut replicas = Vec::new();
    for _ in 0..work.replicas() {
        replicas.push(Proc::spawn(env.repro, &args)?);
    }
    let (router, conns) = if work.routed() {
        let mut route_args = vec![
            "route".to_owned(),
            "--addr".to_owned(),
            "127.0.0.1:0".to_owned(),
        ];
        for r in &replicas {
            route_args.extend(["--backend".to_owned(), r.addr.to_string()]);
        }
        let router = Proc::spawn(env.repro, &route_args)?;
        let conns = spread_connections(&router, connections, replicas.len())?;
        (Some(router), conns)
    } else {
        let conns = (0..connections)
            .map(|_| connect(replicas[0].addr))
            .collect::<Result<_, _>>()?;
        (None, conns)
    };
    let mut stack = Stack {
        replicas,
        router,
        conns,
        traffic,
        models: HashMap::new(),
        next_id: 1,
    };
    for spec in &specs {
        let id = content_id(spec)?;
        stack.call(0, &spec.load_body(), &Expect::Receipt(id.clone()))?;
        stack.models.insert(id, spec.model());
    }
    for conn in 0..stack.conns.len() {
        let first = stack.traffic.next(conn);
        stack.call(conn, &first.tail, &first.expect)?;
    }
    Ok(stack)
}

/// A measured window of `seconds` after a warm-up of a tenth of it (at
/// most a second).
fn timed_window(seconds: f64) -> (Duration, Duration) {
    let measure = Duration::from_secs_f64(seconds);
    ((measure / 10).min(Duration::from_secs(1)), measure)
}

/// Times [`WRITE_PROBE_LOADS`] loads of fresh models of the sweep's size
/// on the warm replica, one at a time and paced so they sample the whole
/// probe period rather than one moment — the write latency of a workload
/// whose mix has none.
fn write_probe(env: &Env, stack: &mut Stack) -> Result<Ledger, String> {
    let names = class_names(SWEEP_CLASSES);
    let mut ledger = Ledger::default();
    for k in 0..WRITE_PROBE_LOADS {
        let spec = ModelSpec::random(&mut Rng::new(env.seed, 1 << 48 | k), &names);
        let expect = Expect::Receipt(content_id(&spec)?);
        std::thread::sleep(WRITE_PROBE_PACE);
        let start = Instant::now();
        match stack.call(0, &spec.load_body(), &expect) {
            Ok(()) => ledger.ok(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)),
            Err(e) => return Err(format!("write probe: {e}")),
        }
    }
    Ok(ledger)
}

/// The untraced run: set up `setups` times (median reported), measure
/// one window, time writes, read peak memory.
pub fn measure(env: &Env, work: Served, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut stack = None;
    for _ in 0..setups {
        drop(stack.take());
        let start = Instant::now();
        stack = Some(set_up(env, work, false)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let mut stack = stack.ok_or("no set-up ran")?;
    out.setup(&mut times);
    let run = loadgen::run(
        &mut stack.conns,
        work.depth(),
        stack.traffic.as_mut(),
        timed_window(env.seconds),
        &mut stack.next_id,
    )?;
    // Memory before the write probe: its fresh models are not the
    // workload's.
    out.metrics.insert("peak_rss_mb", stack.peak_rss_mb()?);
    let writes = if work.routed() {
        run.writes()
    } else {
        let probe = write_probe(env, &mut stack)?;
        out.absorb_ledger(probe.clone());
        probe
    };
    out.timings(&run.ops(), &run.steal, &writes);
    out.absorb(&run);
    Ok(out)
}

/// The traced run: half the window untraced, half with the replicas'
/// flight recorders and metrics on, then the per-layer figures.
pub fn trace(env: &Env, work: Served) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = env.seconds / 2.0;
    let mut stack = set_up(env, work, false)?;
    let plain = loadgen::run(
        &mut stack.conns,
        work.depth(),
        stack.traffic.as_mut(),
        timed_window(half),
        &mut stack.next_id,
    )?;
    drop(stack);
    out.overhead(false, &plain.ops(), &plain.steal);
    out.absorb(&plain);

    let mut stack = set_up(env, work, true)?;
    let before = poll_totals(&stack)?;
    let traced = loadgen::run(
        &mut stack.conns,
        work.depth(),
        stack.traffic.as_mut(),
        timed_window(half),
        &mut stack.next_id,
    )?;
    // Wakeups over the window only: the probe's pauses are idle time.
    let after = poll_totals(&stack)?;
    if !work.routed() {
        out.absorb_ledger(write_probe(env, &mut stack)?);
    }
    let mut records = HashMap::new();
    for (i, r) in stack.replicas.iter().enumerate() {
        layers::drain_trace(r.addr, i, &mut records)?;
    }
    let poll = (after.0 - before.0, after.1 - before.1);
    layers::serve_layers(
        &traced.samples,
        &records,
        work.routed(),
        stack.replicas.len(),
        poll,
        &mut out.metrics,
    );
    layers::replays(&traced.exchanges, &stack.models, &mut out.metrics)?;
    drop(stack);
    out.overhead(true, &traced.ops(), &traced.steal);
    out.metrics.insert("loadgen.busy_share", traced.busy_share);
    out.absorb(&traced);
    Ok(out)
}

/// Poller wakeups and served requests summed over the replicas.
fn poll_totals(stack: &Stack) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for r in &stack.replicas {
        let (wakeups, served) = layers::poll_counters(r.addr)?;
        total.0 += wakeups;
        total.1 += served;
    }
    Ok(total)
}
