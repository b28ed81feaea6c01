//! The benchmark's workloads: seeded trace generators, the reference each
//! trace is checked against, and the encoders that write the input files.
//! The checker only ever sees the files.

use std::io::{BufWriter, Write as _};
use std::path::Path;
use velodrome_bench::hotpath::fanin_stress_trace;
use velodrome_events::{
    oracle, write_vbt, Label, LockId, Op, ThreadId, Trace, TraceBuilder, VarId,
};

/// Traces at most this long also get the oracle's verdict as a reference.
/// The oracle is quadratic in trace length; at this bound it costs
/// milliseconds per trace.
const ORACLE_MAX_EVENTS: usize = 2_000;

/// Threads, and read passes per wave, of the fan-in trace.
const FANIN_THREADS: u64 = 8;
const FANIN_ROUNDS: u64 = 8;

/// Pause of the adversarial schedules, in scheduler steps: the CLI's
/// `--adversarial` setting.
const ADVERSARIAL_PAUSE: u64 = 400;

/// A named set of inputs, each loading different layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One large serializable fan-in trace, stored as VBT and checked with
    /// `trace FILE`. The load is the engine's edge, elision and epoch-cache
    /// path and the VBT decoder; GC, cycle reports, rendering, JSON and
    /// telemetry do almost nothing.
    Fanin,
    /// Rounds in which one long atomic block writes a variable while many
    /// short transactions on another thread read it, each held alive until
    /// the long block ends; stored as JSON and checked with `trace FILE`.
    /// Nearly all time is the GC cascade at the long block's `end`, and the
    /// heap is the alive transactions' ancestor sets.
    Longtxn,
    /// A directory of JSON traces of all 15 paper models under random and
    /// adversarial schedules, checked with `check-batch --jobs=2
    /// --metrics-out`. The load is the streaming JSON decoder, cycle
    /// reconstruction and blame, live telemetry and the worker pool.
    Fleet,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Fanin, Workload::Longtxn, Workload::Fleet];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fanin => "fanin",
            Workload::Longtxn => "longtxn",
            Workload::Fleet => "fleet",
        }
    }

    /// The workload `--workload <name>` selects.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The dimensions that set how long the inputs are.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Waves of the fan-in trace.
    pub fanin_waves: u64,
    /// Rounds of the long-transaction trace.
    pub longtxn_rounds: u64,
    /// Short transactions each long block holds alive.
    pub longtxn_alive: u64,
    /// Scale of the fleet's models.
    pub fleet_scale: u32,
    /// Runs of each model in the fleet, under each of the two schedulers.
    pub fleet_runs: u64,
}

impl Size {
    /// What the benchmark measures.
    pub const FULL: Size = Size {
        fanin_waves: 8_000,
        longtxn_rounds: 8,
        longtxn_alive: 1_500,
        fleet_scale: 4,
        fleet_runs: 10,
    };

    /// A few thousand events per trace, for tests.
    pub const TINY: Size = Size {
        fanin_waves: 16,
        longtxn_rounds: 2,
        longtxn_alive: 20,
        fleet_scale: 1,
        fleet_runs: 1,
    };

    /// Every length-setting dimension halved: the 1× side of a linearity
    /// probe whose 2× side is `self`.
    pub fn half(self) -> Size {
        Size {
            fanin_waves: self.fanin_waves / 2,
            longtxn_alive: self.longtxn_alive / 2,
            fleet_scale: (self.fleet_scale / 2).max(1),
            ..self
        }
    }

    /// The fan-in trace cut to an eighth, for passes through
    /// `Trace::to_json`: it builds a JSON value tree of a few hundred bytes
    /// per event.
    pub fn fanin_json(self) -> Size {
        Size {
            fanin_waves: self.fanin_waves / 8,
            ..self
        }
    }
}

/// A trace file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `Trace::to_json`, read back by the streaming JSON reader.
    Json,
    /// The binary VBT format.
    Vbt,
}

/// What a reference that does not use the engine says about a trace.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Methods a warning may blame: the model's ground truth, or nothing
    /// for a trace serializable by construction.
    pub may_blame: Vec<String>,
    /// Whether the trace is serializable, where that is known without the
    /// engine: by construction, or from the oracle for short traces.
    pub serializable: Option<bool>,
}

impl Expect {
    fn serializable_by_construction() -> Self {
        Self {
            may_blame: Vec::new(),
            serializable: Some(true),
        }
    }
}

/// One input trace and the file it is written to.
#[derive(Debug)]
pub struct Input {
    /// File name in the input directory.
    pub file: String,
    /// The file's format.
    pub format: Format,
    /// The trace.
    pub trace: Trace,
    /// The reference the checker's verdict must agree with.
    pub expect: Expect,
}

impl Input {
    fn new(stem: &str, format: Format, trace: Trace, expect: Expect) -> Self {
        let ext = match format {
            Format::Json => "json",
            Format::Vbt => "vbt",
        };
        Self {
            file: format!("{stem}.{ext}"),
            format,
            trace,
            expect,
        }
    }
}

/// Total events over `inputs`.
pub(crate) fn events(inputs: &[Input]) -> u64 {
    inputs.iter().map(|i| i.trace.len() as u64).sum()
}

/// Generates a workload's inputs from `seed`. Generation is not set-up
/// work: `setup_s` times [`write_all`] only.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Vec<Input> {
    match workload {
        Workload::Fanin => vec![Input::new(
            "fanin",
            Format::Vbt,
            fanin(seed, size.fanin_waves),
            Expect::serializable_by_construction(),
        )],
        Workload::Longtxn => vec![Input::new(
            "longtxn",
            Format::Json,
            longtxn(seed, size.longtxn_rounds, size.longtxn_alive),
            Expect::serializable_by_construction(),
        )],
        Workload::Fleet => fleet(seed, size),
    }
}

/// Encodes every input in its format and writes it to `dir`: the `record`
/// and `convert` path, and the work `setup_s` times. Returns the bytes
/// written.
pub fn write_all(dir: &Path, inputs: &[Input]) -> std::io::Result<u64> {
    let mut bytes = 0;
    for input in inputs {
        let path = dir.join(&input.file);
        match input.format {
            Format::Json => {
                let json = input.trace.to_json();
                std::fs::write(&path, &json)?;
                bytes += json.len() as u64;
            }
            Format::Vbt => {
                let mut out = BufWriter::new(std::fs::File::create(&path)?);
                write_vbt(&mut out, &input.trace)?;
                out.flush()?;
                bytes += std::fs::metadata(&path)?.len();
            }
        }
    }
    Ok(bytes)
}

/// SplitMix64: a small seeded generator, so the inputs depend on the seed
/// alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        for i in (1..p.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// The hot-path fan-in trace, relabeled by the seed.
fn fanin(seed: u64, waves: u64) -> Trace {
    let base = fanin_stress_trace(waves, FANIN_THREADS, FANIN_ROUNDS);
    relabel(&base, &mut SplitMix(seed))
}

/// One past the largest id of each kind in `trace`: (threads, variables,
/// locks).
fn id_counts(trace: &Trace) -> (u32, u32, u32) {
    let (mut threads, mut vars, mut locks) = (0, 0, 0);
    for &op in trace.ops() {
        threads = threads.max(op.tid().raw() + 1);
        match op {
            Op::Read { x, .. } | Op::Write { x, .. } => vars = vars.max(x.raw() + 1),
            Op::Acquire { m, .. } | Op::Release { m, .. } => locks = locks.max(m.raw() + 1),
            Op::Fork { child, .. } | Op::Join { child, .. } => {
                threads = threads.max(child.raw() + 1)
            }
            Op::Begin { .. } | Op::End { .. } => {}
        }
    }
    (threads, vars, locks)
}

/// `trace` with its thread, variable and lock ids permuted by `rng`, each
/// name following its id: the same execution, and the same work for the
/// checker, in different bytes.
fn relabel(trace: &Trace, rng: &mut SplitMix) -> Trace {
    let (threads, vars, locks) = id_counts(trace);
    let (tp, vp, lp) = (
        rng.permutation(threads),
        rng.permutation(vars),
        rng.permutation(locks),
    );
    let t = |t: ThreadId| ThreadId::new(tp[t.index()]);
    let x = |x: VarId| VarId::new(vp[x.index()]);
    let m = |m: LockId| LockId::new(lp[m.index()]);
    let mut out: Trace = trace
        .ops()
        .iter()
        .map(|&op| match op {
            Op::Read { t: a, x: v } => Op::Read { t: t(a), x: x(v) },
            Op::Write { t: a, x: v } => Op::Write { t: t(a), x: x(v) },
            Op::Acquire { t: a, m: l } => Op::Acquire { t: t(a), m: m(l) },
            Op::Release { t: a, m: l } => Op::Release { t: t(a), m: m(l) },
            Op::Begin { t: a, l } => Op::Begin { t: t(a), l },
            Op::End { t: a } => Op::End { t: t(a) },
            Op::Fork { t: a, child } => Op::Fork {
                t: t(a),
                child: t(child),
            },
            Op::Join { t: a, child } => Op::Join {
                t: t(a),
                child: t(child),
            },
        })
        .collect();
    let names = trace.names();
    let table = out.names_mut();
    // Names of ids no operation uses are dropped with them.
    for (id, name) in names.thread_entries() {
        if id < threads {
            table.name_thread(t(ThreadId::new(id)), name);
        }
    }
    for (id, name) in names.var_entries() {
        if id < vars {
            table.name_var(x(VarId::new(id)), name);
        }
    }
    for (id, name) in names.lock_entries() {
        if id < locks {
            table.name_lock(m(LockId::new(id)), name);
        }
    }
    for (id, name) in names.label_entries() {
        table.name_label(Label::new(id), name);
    }
    out
}

/// `rounds` rounds in which one long atomic block writes a variable while
/// `alive` short transactions on the other thread read it. Each short
/// transaction is ordered after the open long block, so none can be
/// collected until the long block ends, and its `end` sets off a GC cascade
/// over all of them. The seed picks the variable's name and which thread
/// runs the long block in each round: the same work for every seed. Every
/// edge points forward in trace order, so the trace is serializable.
fn longtxn(seed: u64, rounds: u64, alive: u64) -> Trace {
    let mut rng = SplitMix(seed);
    let x = format!("cell{}", rng.below(1_000));
    let mut b = TraceBuilder::new();
    for _ in 0..rounds {
        let (long, short) = if rng.next() & 1 == 0 {
            ("T0", "T1")
        } else {
            ("T1", "T0")
        };
        b.begin(long, "Account.update").write(long, &x);
        for _ in 0..alive {
            b.begin(short, "Account.balance").read(short, &x).end(short);
        }
        b.end(long);
    }
    b.finish()
}

/// Seed of the fleet's schedules. They are the same for every `--seed`,
/// which relabels the traces instead: with schedules drawn from `--seed`,
/// the number of violations, and with it the batch's time and heap, varied
/// by over 10% from seed to seed, hiding regressions of that size.
const FLEET_SCHEDULES: u64 = 0x5EED_F1EE7;

/// Every paper model at `size.fleet_scale`, run `size.fleet_runs` times
/// under the random and under the adversarial scheduler, then once more
/// each at scale 1, where most traces are short enough for the oracle;
/// each trace relabeled by the seed.
fn fleet(seed: u64, size: Size) -> Vec<Input> {
    let mut schedules = SplitMix(FLEET_SCHEDULES);
    let mut rng = SplitMix(seed);
    let mut inputs = Vec::new();
    for (scale, runs) in [(size.fleet_scale, size.fleet_runs), (1, 1)] {
        for model in velodrome_workloads::all(scale) {
            for run in 0..runs {
                for adversarial in [false, true] {
                    let s = schedules.next();
                    let (trace, schedule) = if adversarial {
                        (model.run_adversarial(s, ADVERSARIAL_PAUSE), "adv")
                    } else {
                        (model.run(s), "rand")
                    };
                    let trace = relabel(&trace, &mut rng);
                    let serializable =
                        (trace.len() <= ORACLE_MAX_EVENTS).then(|| oracle::is_serializable(&trace));
                    // The index prefix makes name order input order.
                    let stem = format!(
                        "{:04}-{}-x{scale}-{schedule}{run}",
                        inputs.len(),
                        model.name
                    );
                    let expect = Expect {
                        may_blame: model.non_atomic.clone(),
                        serializable,
                    };
                    inputs.push(Input::new(&stem, Format::Json, trace, expect));
                }
            }
        }
    }
    inputs
}
