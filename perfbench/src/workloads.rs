//! The four workloads: their inputs, generated from the workload seed, and
//! one round of each workload's program work, timed from outside the
//! program at the calls into its public API.

use std::collections::BTreeMap;

use cebinae_check::oracle::{self, Violation};
use cebinae_check::report::{CampaignReport, SeedOutcome};
use cebinae_check::shrink::Overrides;
use cebinae_engine::{
    dumbbell, Discipline, DumbbellFlow, QdiscSpec, ScenarioParams, SimConfig, SimResult, Simulation,
};
use cebinae_faults::FaultFamily;
use cebinae_harness::runner::DumbbellRun;
use cebinae_harness::table2;
use cebinae_metrics::jfi;
use cebinae_net::{LinkId, QdiscStats};
use cebinae_sim::rng::DetRng;
use cebinae_sim::{Duration, Time};
use cebinae_transport::CcKind;

use crate::{now, secs_since};

/// Flows in the many-flow macro shape.
pub const MANYFLOW_FLOWS: usize = 4096;
/// Table 2 rows of the signature workload: FIFO collapses against a
/// delay-based CCA and Cebinae restores fairness (rows 7, 10 and 18).
pub const SIGNATURE_ROWS: [usize; 3] = [7, 10, 18];
/// Table 2 row whose configuration the deep-buffer BBR workload runs. Its
/// flows are the harness's, whatever the seed: jittering the starts or the
/// order moves the BBR flow's 3-s trajectory between regimes (end-of-run
/// flight 2-11 MB under Cebinae, 0.4-1.9 us of host time per packet), so
/// the workload's cost would be a draw from that spread.
pub const BBR_ROW: usize = 14;
const BBR_SECS: u64 = 3;
/// Flow starts are spread over this window; the rest of each run is
/// steady state.
const START_JITTER_MS: u64 = 50;
/// Seeds per round of the check campaign.
pub const CAMPAIGN_PLAIN_SEEDS: u64 = 96;
pub const CAMPAIGN_CHAOS_SEEDS: u64 = 48;
/// The campaign runs the fuzzer's own default seed range (`cebinae-check
/// --smoke`/`--chaos` start at base seed 0), not a range drawn from the
/// workload seed: ranges drawn elsewhere hit oracle violations on some
/// seeds (a Cebinae fairness collapse on symmetric 4-flow dumbbells, a
/// stalled flow after a control-plane stall), and an operation that fails
/// only on some seeds cannot be counted steadily.
pub const CAMPAIGN_BASE_SEED: u64 = 0;
/// The harness excludes the first tenth of a run from rate averages.
const WARMUP_FRACTION: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ManyflowFq,
    Table2Signature,
    BbrDeepbuf,
    CheckCampaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ManyflowFq,
        Workload::Table2Signature,
        Workload::BbrDeepbuf,
        Workload::CheckCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ManyflowFq => "manyflow-fq",
            Workload::Table2Signature => "table2-signature",
            Workload::BbrDeepbuf => "bbr-deepbuf",
            Workload::CheckCampaign => "check-campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set-ups of each operation a round repeats beside the operation's
    /// own, for `setup_s`. The many-flow set-up (0.2-0.3 s) is sampled
    /// once per round by the operation itself; the others take tens of
    /// microseconds to a millisecond.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ManyflowFq => 0,
            _ => 16,
        }
    }
}

/// One dumbbell simulation of a workload.
pub struct SimJob {
    pub label: String,
    /// Pairs the FIFO and Cebinae legs of one Table 2 row for the
    /// direction check.
    pub group: usize,
    pub flows: Vec<DumbbellFlow>,
    pub params: ScenarioParams,
}

/// The check campaign: fuzzer seeds from [`CAMPAIGN_BASE_SEED`] plus the
/// fixed observation-neutrality pairs.
pub struct CampaignJob {
    /// Pairs of the same scenario with telemetry off and on.
    pub neutrality: Vec<(SimJob, SimJob)>,
}

pub enum Inputs {
    Sims(Vec<SimJob>),
    Campaign(CampaignJob),
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let mut rng = DetRng::seed_from_u64(seed ^ 0xBE4C_4A7E_0000_0000);
        match w {
            Workload::ManyflowFq => Inputs::Sims(vec![manyflow_job(&mut rng, seed)]),
            Workload::Table2Signature => Inputs::Sims(
                SIGNATURE_ROWS
                    .iter()
                    .flat_map(|&id| row_jobs(Some(&mut rng), seed, id, None, &Discipline::PAPER))
                    .collect(),
            ),
            Workload::BbrDeepbuf => Inputs::Sims(row_jobs(
                None,
                seed,
                BBR_ROW,
                Some(Duration::from_secs(BBR_SECS)),
                &[Discipline::Fifo, Discipline::Cebinae],
            )),
            Workload::CheckCampaign => Inputs::Campaign(CampaignJob {
                neutrality: [Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae]
                    .into_iter()
                    .map(|d| (neutrality_job(d, false), neutrality_job(d, true)))
                    .collect(),
            }),
        }
    }
}

fn jittered_start(rng: &mut DetRng) -> Time {
    Time::from_millis(rng.gen_range_u64(0, START_JITTER_MS + 1))
}

fn manyflow_job(rng: &mut DetRng, seed: u64) -> SimJob {
    let flows = (0..MANYFLOW_FLOWS)
        .map(|_| {
            let cc = if rng.gen_bool(0.5) {
                CcKind::NewReno
            } else {
                CcKind::Cubic
            };
            DumbbellFlow::new(cc, rng.gen_range_u64(20, 91)).starting_at(jittered_start(rng))
        })
        .collect();
    let mut params = ScenarioParams::new(400_000_000, 1024, Discipline::FqCoDel);
    params.duration = Duration::from_secs(1);
    params.seed = seed;
    SimJob {
        label: format!("manyflow {MANYFLOW_FLOWS} flows FQ"),
        group: 0,
        flows,
        params,
    }
}

/// One Table 2 row under each discipline, with the harness's conventions
/// (scaled duration unless overridden, P = 1). With a generator, the seed
/// picks which flow slot holds which CCA and when each flow starts; the
/// row fixes the counts, RTTs, rate and buffer. Without one, the flows are
/// the harness's: in row order, all starting at zero.
fn row_jobs(
    rng: Option<&mut DetRng>,
    seed: u64,
    id: usize,
    duration: Option<Duration>,
    disciplines: &[Discipline],
) -> Vec<SimJob> {
    let row = table2::rows()
        .into_iter()
        .find(|r| r.id == id)
        .expect("Table 2 has rows 1..=25");
    let mut flows = row.flows();
    if let Some(rng) = rng {
        rng.shuffle(&mut flows);
        for f in &mut flows {
            f.start = jittered_start(rng);
        }
    }
    let duration = duration.unwrap_or_else(|| Duration::from_secs(row.scaled_secs()));
    disciplines
        .iter()
        .map(|&d| SimJob {
            label: format!("row {id} {}", d.label()),
            group: id,
            flows: flows.clone(),
            params: DumbbellRun::new(row.rate_bps)
                .buffer_mtus(row.buffer_mtus)
                .discipline(d)
                .duration(duration)
                .seed(seed)
                .params()
                .clone(),
        })
        .collect()
}

/// The fixed observation-neutrality dumbbell: 64 flows alternating
/// NewReno/Cubic over RTTs of 20-90 ms, 100 Mbps, 200-MTU buffer, 3 s.
/// Deliberately independent of the workload seed.
fn neutrality_job(d: Discipline, telemetry: bool) -> SimJob {
    let flows = (0..64u64)
        .map(|i| {
            let cc = if i % 2 == 0 {
                CcKind::NewReno
            } else {
                CcKind::Cubic
            };
            DumbbellFlow::new(cc, 20 + (i % 8) * 10)
        })
        .collect();
    let mut params = ScenarioParams::new(100_000_000, 200, d);
    params.duration = Duration::from_secs(3);
    params.telemetry = telemetry;
    SimJob {
        label: format!("neutrality {} telemetry={telemetry}", d.label()),
        group: 0,
        flows,
        params,
    }
}

// ---------------------------------------------------------------------------
// Per-simulation records
// ---------------------------------------------------------------------------

/// What the independent checks need from one simulation.
#[derive(Clone, Debug)]
pub struct Summary {
    pub label: String,
    pub group: usize,
    pub discipline: Discipline,
    pub duration_s: f64,
    pub link_rates_bps: Vec<u64>,
    pub link_stats: Vec<QdiscStats>,
    pub link_limits: Vec<u64>,
    pub bneck: usize,
    /// The bottleneck's qdisc as the scenario builder configured it.
    pub bneck_spec: QdiscSpec,
    /// Longest flow RTT, ms.
    pub max_rtt_ms: u64,
    pub delivered: Vec<u64>,
    /// The program's whole-run average goodput per flow, bits/s.
    pub whole_run_bps: Vec<f64>,
    /// The program's post-warmup goodput per flow, bits/s.
    pub goodputs_bps: Vec<f64>,
    pub program_jfi: f64,
    /// For the per-simulation report on stderr.
    pub run_s: f64,
    pub tx_pkts: u64,
    pub peak_flight_bytes: u64,
}

/// Exact work counts read from `SimResult`s, summed over simulations.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub sims: u64,
    pub flows: u64,
    pub events: u64,
    pub tx_pkts: u64,
    pub bneck_bits: f64,
    pub bneck_capacity_bits: f64,
    /// Packets offered to FIFO qdisc objects that the event loop serves
    /// (links on the express path are served analytically instead).
    pub fifo_pkts: u64,
    pub fq_pkts: u64,
    pub fq_drops: u64,
    pub ceb_pkts: u64,
    pub rotations: u64,
    pub lbf_drops: u64,
    pub delayed_pkts: u64,
    pub acks: u64,
    pub retx_pkts: u64,
    pub rto_count: u64,
    pub peak_flight_bytes: u64,
    /// ACK load per (CCA, power-of-two bucket of the flow's end-of-run
    /// flight in segments): the shapes the transport drive replays.
    pub ack_load: BTreeMap<(&'static str, u32), AckLoad>,
    pub ndjson_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.sims += o.sims;
        self.flows += o.flows;
        self.events += o.events;
        self.tx_pkts += o.tx_pkts;
        self.bneck_bits += o.bneck_bits;
        self.bneck_capacity_bits += o.bneck_capacity_bits;
        self.fifo_pkts += o.fifo_pkts;
        self.fq_pkts += o.fq_pkts;
        self.fq_drops += o.fq_drops;
        self.ceb_pkts += o.ceb_pkts;
        self.rotations += o.rotations;
        self.lbf_drops += o.lbf_drops;
        self.delayed_pkts += o.delayed_pkts;
        self.acks += o.acks;
        self.retx_pkts += o.retx_pkts;
        self.rto_count += o.rto_count;
        self.peak_flight_bytes = self.peak_flight_bytes.max(o.peak_flight_bytes);
        for (k, l) in &o.ack_load {
            self.ack_load.entry(*k).or_insert(AckLoad::new(l.cc)).add(l);
        }
        self.ndjson_bytes += o.ndjson_bytes;
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkKind {
    Fifo,
    FqCoDel,
    Cebinae,
    Other,
}

/// What the benchmark records of a config before the engine consumes it.
struct Shape {
    kinds: Vec<LinkKind>,
    /// Served by a qdisc object through events (not on the express path,
    /// which the engine uses for unmanaged, unmonitored, untraced links
    /// of telemetry-off, fault-free runs). `SimResult` does not say which
    /// links the express path served, so this copies the engine's rule:
    /// `express_on` and `eligible` in `Simulation::new`
    /// (`crates/engine/src/world/mod.rs`). It must follow any change
    /// there; the engine's `express` knob is left at its default and not
    /// read here.
    event_served: Vec<bool>,
    rates_bps: Vec<u64>,
    ccs: Vec<CcKind>,
    duration_s: f64,
}

impl Shape {
    fn of(cfg: &SimConfig) -> Shape {
        let n = cfg.topology.links().len();
        let mut kinds = Vec::with_capacity(n);
        let mut event_served = Vec::with_capacity(n);
        let whole_run_events = cfg.telemetry || !cfg.faults.is_empty();
        for i in 0..n {
            let id = LinkId::from(i);
            let spec = cfg.qdiscs.get(&id);
            kinds.push(match spec {
                None | Some(QdiscSpec::Fifo { .. }) => LinkKind::Fifo,
                Some(QdiscSpec::FqCoDel(_)) => LinkKind::FqCoDel,
                Some(QdiscSpec::Cebinae(_)) => LinkKind::Cebinae,
                Some(QdiscSpec::Afq(_)) => LinkKind::Other,
            });
            event_served.push(
                whole_run_events
                    || spec.is_some()
                    || cfg.traced_links.contains(&id)
                    || cfg.monitored_links.contains(&id),
            );
        }
        Shape {
            kinds,
            event_served,
            rates_bps: cfg.topology.links().iter().map(|l| l.rate_bps).collect(),
            ccs: cfg.flows.iter().map(|f| f.tcp.cc).collect(),
            duration_s: cfg.duration.as_secs_f64(),
        }
    }

    fn counts(&self, res: &SimResult) -> Counts {
        let mut c = Counts {
            sims: 1,
            flows: res.delivered.len() as u64,
            events: res.events_processed,
            ..Counts::default()
        };
        for (i, s) in res.link_stats.iter().enumerate() {
            c.tx_pkts += s.tx_pkts;
            let offered = s.enq_pkts + (s.drop_pkts - s.drop_queued_pkts);
            match self.kinds[i] {
                LinkKind::Fifo if self.event_served[i] => c.fifo_pkts += offered,
                LinkKind::FqCoDel => {
                    c.fq_pkts += offered;
                    c.fq_drops += s.drop_pkts;
                }
                LinkKind::Cebinae => c.ceb_pkts += offered,
                _ => {}
            }
        }
        for l in &res.monitored_links {
            let s = &res.link_stats[l.index()];
            c.bneck_bits += s.tx_bytes as f64 * 8.0;
            c.bneck_capacity_bits += self.rates_bps[l.index()] as f64 * self.duration_s;
        }
        if let Some((_, last)) = res.cebinae_series.last() {
            for s in last {
                c.rotations += s.rotations;
                c.lbf_drops += s.lbf_drops;
                c.delayed_pkts += s.delayed_pkts;
            }
        }
        for (f, cc) in res.flow_debug.iter().zip(&self.ccs) {
            c.acks += f.rx_pkts;
            c.retx_pkts += f.retx_count;
            c.rto_count += f.rto_count;
            c.peak_flight_bytes = c.peak_flight_bytes.max(f.flight);
            let segs = f.flight / u64::from(cebinae_net::packet::MSS);
            c.ack_load
                .entry((cc.label(), bucket(segs)))
                .or_insert(AckLoad::new(*cc))
                .add(&AckLoad {
                    cc: *cc,
                    acks: f.rx_pkts,
                    flight_acks: segs as f64 * f.rx_pkts as f64,
                });
        }
        c.ndjson_bytes = res.telemetry.as_ref().map_or(0, |t| t.len() as u64);
        c
    }
}

/// ACKs of flows with one CCA and similar flight.
#[derive(Clone, Copy, Debug)]
pub struct AckLoad {
    pub cc: CcKind,
    pub acks: u64,
    /// Sum of flight (segments) times ACKs, for the ACK-weighted mean.
    pub flight_acks: f64,
}

impl AckLoad {
    fn new(cc: CcKind) -> AckLoad {
        AckLoad {
            cc,
            acks: 0,
            flight_acks: 0.0,
        }
    }

    fn add(&mut self, o: &AckLoad) {
        self.acks += o.acks;
        self.flight_acks += o.flight_acks;
    }

    /// ACK-weighted mean flight, segments.
    pub fn flight_segs(&self) -> u64 {
        (self.flight_acks / self.acks.max(1) as f64).round() as u64
    }
}

/// Power-of-two bucket (upper edge) of a segment count.
pub fn bucket(segs: u64) -> u32 {
    segs.max(1).next_power_of_two().trailing_zeros()
}

/// Host times of one piece of program work, seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    pub build_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    pub post_s: f64,
    /// Oracle families of the check pipeline.
    pub conservation_s: f64,
    pub replay_s: f64,
    pub differential_s: f64,
    pub fairness_s: f64,
    pub faults_s: f64,
}

impl Times {
    pub fn add(&mut self, o: &Times) {
        self.build_s += o.build_s;
        self.new_s += o.new_s;
        self.run_s += o.run_s;
        self.post_s += o.post_s;
        self.conservation_s += o.conservation_s;
        self.replay_s += o.replay_s;
        self.differential_s += o.differential_s;
        self.fairness_s += o.fairness_s;
        self.faults_s += o.faults_s;
    }

    pub fn program_s(&self) -> f64 {
        self.build_s
            + self.new_s
            + self.run_s
            + self.post_s
            + self.conservation_s
            + self.replay_s
            + self.differential_s
            + self.fairness_s
            + self.faults_s
    }
}

/// Run one dumbbell job the way the harness does (`run_with_params`:
/// build, simulate, per-flow goodput, bottleneck throughput, JFI), timing
/// each stage.
pub fn run_sim(job: &SimJob) -> (Summary, Counts, Times) {
    let t0 = now();
    let (cfg, bneck) = dumbbell(&job.flows, &job.params);
    let t1 = now();
    let shape = Shape::of(&cfg);
    let bneck_spec = cfg
        .qdiscs
        .get(&bneck)
        .cloned()
        .expect("the bottleneck is managed");
    let t1b = now();
    let sim = Simulation::new(cfg);
    let t2 = now();
    let res = sim.run();
    let t3 = now();
    let warmup = Time::ZERO + job.params.duration / WARMUP_FRACTION;
    let goodputs_bps = res.goodputs_bps(warmup);
    let _tput_bps = res.link_throughput_bps(bneck, warmup);
    let program_jfi = jfi(&goodputs_bps);
    let t4 = now();
    let times = Times {
        build_s: secs_since(t0, t1),
        new_s: secs_since(t1b, t2),
        run_s: secs_since(t2, t3),
        post_s: secs_since(t3, t4),
        ..Times::default()
    };
    let summary = Summary {
        label: job.label.clone(),
        group: job.group,
        discipline: job.params.discipline,
        duration_s: shape.duration_s,
        link_rates_bps: shape.rates_bps.clone(),
        link_stats: res.link_stats.clone(),
        link_limits: res.link_limits.clone(),
        bneck: bneck.index(),
        bneck_spec,
        max_rtt_ms: job
            .flows
            .iter()
            .map(|f| f.rtt.as_nanos() / 1_000_000)
            .max()
            .unwrap_or(0),
        delivered: res.delivered.clone(),
        whole_run_bps: res.goodputs_bps(Time::ZERO),
        goodputs_bps,
        program_jfi,
        run_s: times.run_s,
        tx_pkts: res.link_stats.iter().map(|s| s.tx_pkts).sum(),
        peak_flight_bytes: res.flow_debug.iter().map(|f| f.flight).max().unwrap_or(0),
    };
    (summary, shape.counts(&res), times)
}

/// Set-up only: scenario builder plus `Simulation::new`, seconds. The
/// simulation is dropped outside the timed span.
fn setup_sim(job: &SimJob) -> f64 {
    let t0 = now();
    let (cfg, _) = dumbbell(&job.flows, &job.params);
    let sim = Simulation::new(cfg);
    let dt = secs_since(t0, now());
    drop(sim);
    dt
}

// ---------------------------------------------------------------------------
// The check pipeline, stage by stage
// ---------------------------------------------------------------------------

/// The chaos campaign cycles fault families by seed, as
/// `cebinae_check::run_chaos_campaign` does.
pub fn chaos_overrides(seed: u64) -> Overrides {
    Overrides {
        faults: Some(FaultFamily::ALL[(seed % FaultFamily::ALL.len() as u64) as usize]),
        ..Overrides::default()
    }
}

/// One fuzzer seed through the same stages as `cebinae_check::check_seed`
/// (engine run, then every applicable oracle, then the symmetric-fairness
/// pair), called stage by stage so each can be timed and counted. A
/// passing seed needs no shrinking, so the outcome equals `check_seed`'s;
/// the pipeline-parity check holds the two together. Each oracle family
/// is timed on its own.
pub fn check_one(seed: u64, ov: Overrides) -> (SeedOutcome, Counts, Times) {
    let mut t = Times::default();
    let mut counts = Counts::default();
    let t0 = now();
    let sc = ov.realize(seed);
    let (cfg, _bnecks) = sc.build();
    let t1 = now();
    let shape = Shape::of(&cfg);
    let t1b = now();
    let sim = Simulation::new(cfg);
    let t2 = now();
    let res = sim.run();
    let t3 = now();
    t.build_s += secs_since(t0, t1);
    t.new_s += secs_since(t1b, t2);
    t.run_s += secs_since(t2, t3);
    counts.add(&shape.counts(&res));
    let mut events = res.events_processed;

    let end_ns = Duration::from_millis(sc.duration_ms).as_nanos();
    let mut violations: Vec<Violation> = Vec::new();
    let a = now();
    if let Some(ndjson) = &res.telemetry {
        violations.extend(oracle::check_conservation(ndjson, end_ns));
    }
    let b = now();
    let plan = sc.fault_plan();
    if plan.control.is_empty() {
        violations.extend(oracle::check_trace_replay(&sc, &res));
    }
    let c = now();
    violations.extend(oracle::check_differential(&sc));
    let d = now();
    if !plan.is_empty() {
        if let Some(ndjson) = &res.telemetry {
            violations.extend(oracle::check_fault_accounting(&res.trace, ndjson));
        }
        violations.extend(oracle::check_degradation(&sc, &res));
    }
    let e = now();
    t.conservation_s += secs_since(a, b);
    t.replay_s += secs_since(b, c);
    t.differential_s += secs_since(c, d);
    t.faults_s += secs_since(d, e);
    drop(res);

    let mut fairness = None;
    if sc.symmetric {
        let mut results = Vec::with_capacity(2);
        for disc in [Discipline::Cebinae, Discipline::Fifo] {
            let t0 = now();
            let (cfg, _) = sc.build_fairness(disc);
            let t1 = now();
            let shape = Shape::of(&cfg);
            let t1b = now();
            let sim = Simulation::new(cfg);
            let t2 = now();
            let res = sim.run();
            let t3 = now();
            t.build_s += secs_since(t0, t1);
            t.new_s += secs_since(t1b, t2);
            t.run_s += secs_since(t2, t3);
            counts.add(&shape.counts(&res));
            events += res.events_processed;
            results.push(res);
        }
        let a = now();
        let sample = oracle::fairness_sample(&sc, &results[0], &results[1]);
        violations.extend(oracle::check_fairness_collapse(&sample));
        t.fairness_s += secs_since(a, now());
        fairness = Some(sample);
    }
    let outcome = SeedOutcome {
        seed,
        desc: sc.describe(),
        violations,
        shrunk: None,
        fairness,
        events,
    };
    (outcome, counts, t)
}

fn setup_check_seed(seed: u64, ov: Overrides) -> f64 {
    let t0 = now();
    let sc = ov.realize(seed);
    let mut sims = vec![Simulation::new(sc.build().0)];
    if sc.symmetric {
        for disc in [Discipline::Cebinae, Discipline::Fifo] {
            sims.push(Simulation::new(sc.build_fairness(disc).0));
        }
    }
    let dt = secs_since(t0, now());
    drop(sims);
    dt
}

// ---------------------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------------------

/// Outcome of one neutrality operation.
pub struct NeutralityOutcome {
    pub label: String,
    /// Delivered bytes with telemetry off and on.
    pub delivered: (Vec<u64>, Vec<u64>),
}

impl NeutralityOutcome {
    pub fn neutral(&self) -> bool {
        self.delivered.0 == self.delivered.1
    }
}

/// One round: every operation of the workload once.
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    /// Program host time of the round (excludes the benchmark's checks).
    pub wall_s: f64,
    /// Per timed piece of program work (an operation, or a campaign's
    /// report): its program host time, its time inside
    /// `Simulation::run`, and the fastest of its set-ups in this round
    /// (its own and the repeats), seconds.
    pub op_wall_s: Vec<f64>,
    pub op_run_s: Vec<f64>,
    pub op_setup_s: Vec<f64>,
    pub times: Times,
    pub counts: Counts,
    pub sims: Vec<Summary>,
    pub campaigns: Vec<CampaignReport>,
    pub neutrality: Vec<NeutralityOutcome>,
}

impl Round {
    /// Record a piece of program work's times and its set-up samples: its
    /// own (scenario builders plus `Simulation::new`) and the repeats.
    fn push_op(&mut self, t: &Times, setup_repeats: impl Iterator<Item = f64>) {
        self.times.add(t);
        self.op_wall_s.push(t.program_s());
        self.op_run_s.push(t.run_s);
        self.op_setup_s
            .push(setup_repeats.fold(t.build_s + t.new_s, f64::min));
    }

    /// A digest of the round's deterministic outputs: two rounds of the
    /// same inputs must agree on it.
    pub fn fingerprint(&self) -> String {
        let mut s = format!("ev={} tx={} ", self.counts.events, self.counts.tx_pkts);
        for sim in &self.sims {
            s += &format!("{}:{} ", sim.label, sim.delivered.iter().sum::<u64>());
        }
        for c in &self.campaigns {
            s += &format!("campaign:{:x} ", c.fingerprint());
        }
        for n in &self.neutrality {
            s += &format!(
                "{}:{}/{} ",
                n.label,
                n.delivered.0.iter().sum::<u64>(),
                n.delivered.1.iter().sum::<u64>()
            );
        }
        s
    }
}

impl Inputs {
    /// Run every operation once. An operation is one simulation (with its
    /// post-processing), one fuzzer seed with its oracles, or one
    /// neutrality pair. After each operation its set-up is repeated
    /// `setup_reps` times, outside `wall_s`, so that set-up samples are
    /// spread over the run like the operations themselves.
    pub fn run_round(&self, setup_reps: usize) -> Round {
        let mut round = Round {
            attempted: 0,
            failed: 0,
            wall_s: 0.0,
            op_wall_s: Vec::new(),
            op_run_s: Vec::new(),
            op_setup_s: Vec::new(),
            times: Times::default(),
            counts: Counts::default(),
            sims: Vec::new(),
            campaigns: Vec::new(),
            neutrality: Vec::new(),
        };
        match self {
            Inputs::Sims(jobs) => {
                for job in jobs {
                    let (summary, counts, times) = run_sim(job);
                    round.push_op(&times, (0..setup_reps).map(|_| setup_sim(job)));
                    round.attempted += 1;
                    round.counts.add(&counts);
                    round.sims.push(summary);
                }
            }
            Inputs::Campaign(job) => {
                for (count, chaos) in [(CAMPAIGN_PLAIN_SEEDS, false), (CAMPAIGN_CHAOS_SEEDS, true)]
                {
                    let mut outcomes = Vec::with_capacity(count as usize);
                    for seed in CAMPAIGN_BASE_SEED..CAMPAIGN_BASE_SEED + count {
                        let ov = if chaos {
                            chaos_overrides(seed)
                        } else {
                            Overrides::default()
                        };
                        let (outcome, counts, times) = check_one(seed, ov);
                        round.push_op(&times, (0..setup_reps).map(|_| setup_check_seed(seed, ov)));
                        round.attempted += 1;
                        round.failed += u64::from(!outcome.passed());
                        round.counts.add(&counts);
                        outcomes.push(outcome);
                    }
                    let t0 = now();
                    let report = CampaignReport::new(CAMPAIGN_BASE_SEED, outcomes);
                    let report_times = Times {
                        fairness_s: secs_since(t0, now()),
                        ..Times::default()
                    };
                    round.push_op(&report_times, std::iter::empty());
                    round.campaigns.push(report);
                }
                for (off, on) in &job.neutrality {
                    let (a, ca, mut ta) = run_sim(off);
                    let (b, cb, tb) = run_sim(on);
                    ta.add(&tb);
                    round.push_op(&ta, (0..setup_reps).map(|_| setup_sim(off) + setup_sim(on)));
                    round.counts.add(&ca);
                    round.counts.add(&cb);
                    let n = NeutralityOutcome {
                        label: off.label.replace(" telemetry=false", ""),
                        delivered: (a.delivered.clone(), b.delivered.clone()),
                    };
                    round.sims.push(a);
                    round.sims.push(b);
                    round.attempted += 1;
                    round.failed += u64::from(!n.neutral());
                    round.neutrality.push(n);
                }
            }
        }
        round.wall_s = round.times.program_s();
        round
    }
}
