//! The workloads: seeded frame generation plus the goldens every
//! reply is checked against.
//!
//! A [`Plan`] is pure data derived from the workload and `--seed` (the
//! same seed gives byte-identical frames). Frames are stored as the
//! request *tail* after the leading `{"id":` and id digits, so the
//! generator stamps a fresh id onto each send without re-encoding.
//! Goldens are the service-free reference path — [`run_sim`] /
//! [`run_sim_edited`] of the same build — encoded the same way.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigcircuit::{Benchmark, Circuit, MappingPolicy};
use sigserve::service::map_for_simulation;
use sigserve::{
    encode_request, encode_response, run_sim, run_sim_edited, CacheOutcome, CircuitSource,
    ModelSet, Request, Response, SessionEdit, SimRequest,
};
use sigsim::StimulusSpec;

/// The model preset every workload is served with (trained, valid region
/// on).
pub const MODELS: &str = "ci";
/// The cell library every workload is served with.
pub const LIBRARY: &str = "nor-only";
/// Connections, each with its own generator thread: one per core of the
/// reference host.
const CONNECTIONS: usize = 2;
/// Frames each connection keeps in flight (a pipelined closed loop).
pub const WINDOW: usize = 4;
/// Compare-mode seeds behind `t_err_ratio`. Fixed, so the accuracy
/// figure is a property of the build rather than of `--seed`.
pub const COMPARE_SEEDS: [u64; 2] = [1, 2];

/// Table I's fast setup `(µt, σt, transitions)`, used for the c1355
/// accuracy figure of `edit_c17`.
const FAST_STIMULI: (f64, f64, usize) = (20e-12, 10e-12, 20);
/// The service's default stimuli.
const DEFAULT_STIMULI: (f64, f64, usize) = (60e-12, 25e-12, 4);
/// `small_inline` working set: below the daemon's 32-entry circuit cache.
const WORKING_SET: usize = 16;
const SEEDS_PER_NETLIST: u64 = 4;
/// Every `FRESH_EVERY`-th `small_inline` frame carries a fresh revision.
const FRESH_EVERY: usize = 8;
const INLINE_CYCLE: usize = 8192;
/// `edit_c17` sessions per connection, each on its own seeded baseline.
/// Deltas go to the sessions in turn, so the [`WINDOW`] frames in flight
/// always belong to distinct sessions.
const EDIT_SESSIONS: usize = 8;
/// Deltas per session in one cycle of the frame sequence.
const EDIT_CYCLE: usize = 64;

/// The ISCAS-85 c17 gates, in NAND form: `(output, [in0, in1])`.
const C17_GATES: [(&str, [&str; 2]); 6] = [
    ("10", ["1", "3"]),
    ("11", ["3", "6"]),
    ("16", ["2", "11"]),
    ("19", ["11", "7"]),
    ("22", ["10", "16"]),
    ("23", ["16", "19"]),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-input `session.delta` frames on c17 sessions.
    EditC17,
    /// Pipelined inline c17-scale netlists; a share are fresh revisions.
    SmallInline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Self::EditC17, Self::SmallInline];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::EditC17 => "edit_c17",
            Self::SmallInline => "small_inline",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a reply must equal, computed by the service-free reference path.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A `sim` reply (also what `session.delta` answers): the reference
    /// run with `edits` replacing the seeded stimuli of their inputs.
    Sim {
        /// The simulation, `timings` off.
        sim: SimRequest,
        /// Stimulus replacements applied on top of the seeded stimuli.
        edits: Vec<SessionEdit>,
    },
    /// A `session.open` reply: the baseline run.
    Session {
        /// The session id echoed in the reply.
        session: u64,
        /// The baseline simulation, `timings` off.
        sim: SimRequest,
    },
}

impl Expect {
    /// The simulation the golden is computed from.
    fn sim(&self) -> &SimRequest {
        match self {
            Self::Sim { sim, .. } | Self::Session { sim, .. } => sim,
        }
    }
}

/// One request template.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The encoded request after `{"id":` and the id digits.
    pub tail: String,
    /// Index of the reply's golden in [`Plan::expects`].
    pub expect: usize,
    /// Simulations the frame asks for (`sims_per_s` counts these).
    pub sims: u64,
}

/// One connection's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnPlan {
    /// Sent once each on connect, before any measured frame
    /// (`session.open`).
    pub opens: Vec<Frame>,
    /// The frames, sent in order and cycled.
    pub frames: Vec<Frame>,
}

/// A workload's complete, seeded traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload generated.
    pub workload: Workload,
    /// Per-connection traffic.
    pub conns: Vec<ConnPlan>,
    /// Compare-mode frames behind `t_err_ratio`, sent outside the
    /// measured window.
    pub compare: Vec<Frame>,
    /// Distinct goldens the frames refer to.
    pub expects: Vec<Expect>,
}

/// Accumulates frames, deduplicating their goldens.
#[derive(Default)]
struct FrameSet {
    expects: Vec<Expect>,
    index: HashMap<String, usize>,
}

impl FrameSet {
    fn frame(&mut self, request: &Request, expect: Expect, sims: u64) -> Frame {
        let key = format!("{expect:?}");
        let next = self.expects.len();
        let expect = *self.index.entry(key).or_insert_with(|| {
            self.expects.push(expect);
            next
        });
        Frame {
            tail: tail(&encode_request(request)),
            expect,
            sims,
        }
    }

    fn sim(&mut self, sim: SimRequest) -> Frame {
        let expect = Expect::Sim {
            sim: untimed(&sim),
            edits: Vec::new(),
        };
        self.frame(&Request::Sim { id: 0, sim }, expect, 1)
    }
}

/// Strips the leading `{"id":0` of a frame encoded with id 0.
fn tail(encoded: &str) -> String {
    encoded
        .strip_prefix("{\"id\":0")
        .expect("frames are encoded with id 0 first")
        .to_string()
}

fn untimed(sim: &SimRequest) -> SimRequest {
    SimRequest {
        timings: false,
        ..sim.clone()
    }
}

fn request(
    circuit: CircuitSource,
    (mu, sigma, transitions): (f64, f64, usize),
    seed: u64,
    timings: bool,
) -> SimRequest {
    SimRequest {
        circuit,
        models: MODELS.to_string(),
        library: LIBRARY.to_string(),
        seed,
        mu,
        sigma,
        transitions,
        compare: false,
        timing: false,
        timings,
    }
}

fn compare_frames(b: &mut FrameSet, base: &SimRequest) -> Vec<Frame> {
    COMPARE_SEEDS
        .iter()
        .map(|&seed| {
            b.sim(SimRequest {
                seed,
                compare: true,
                timings: false,
                ..base.clone()
            })
        })
        .collect()
}

/// A c17 revision in its original NAND form: internal nets renamed with
/// `tag` and each gate's pin order drawn from `rng`, so every revision has
/// its own content hash, parse, NOR mapping and compile.
#[must_use]
pub fn c17_revision(tag: Option<u64>, rng: &mut StdRng) -> String {
    let net = |n: &str| match tag {
        Some(t) if !matches!(n, "1" | "2" | "3" | "6" | "7" | "22" | "23") => {
            format!("r{t:x}_{n}")
        }
        _ => n.to_string(),
    };
    let mut text = match tag {
        Some(t) => format!("# c17 revision {t:x}\n"),
        None => "# ISCAS-85 c17\n".to_string(),
    };
    for input in ["1", "2", "3", "6", "7"] {
        text.push_str(&format!("INPUT({input})\n"));
    }
    text.push_str("OUTPUT(22)\nOUTPUT(23)\n");
    for (out, [a, b]) in C17_GATES {
        let (a, b) = if tag.is_some() && rng.gen::<bool>() {
            (b, a)
        } else {
            (a, b)
        };
        text.push_str(&format!("{} = NAND({}, {})\n", net(out), net(a), net(b)));
    }
    text
}

impl Plan {
    /// Generates a workload's traffic from `seed`. `timings` asks the
    /// daemon for its per-request phase breakdown (the traced run); it
    /// changes the frames, never the goldens.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, timings: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = FrameSet::default();
        let (conns, compare) = match workload {
            Workload::EditC17 => {
                let text = c17_revision(None, &mut rng);
                let circuit =
                    build_circuit(&CircuitSource::Inline(text.clone()), MappingPolicy::NorOnly)
                        .expect("c17 parses");
                let base = request(CircuitSource::Inline(text), DEFAULT_STIMULI, 0, timings);
                let conns = (0..CONNECTIONS)
                    .map(|_| edit_conn(&mut b, &mut rng, &circuit, &base))
                    .collect();
                // The paper's Table I figure: c1355 under the fast setup.
                let fast = request(
                    CircuitSource::Name("c1355".into()),
                    FAST_STIMULI,
                    0,
                    timings,
                );
                let compare = compare_frames(&mut b, &fast);
                (conns, compare)
            }
            Workload::SmallInline => {
                let working: Vec<String> = (0..WORKING_SET)
                    .map(|_| {
                        let tag = rng.gen::<u64>();
                        c17_revision(Some(tag), &mut rng)
                    })
                    .collect();
                let mut frames = Vec::with_capacity(INLINE_CYCLE);
                for i in 0..INLINE_CYCLE {
                    let (text, seed) = if i % FRESH_EVERY == FRESH_EVERY - 1 {
                        let tag = rng.gen::<u64>();
                        (c17_revision(Some(tag), &mut rng), 1)
                    } else {
                        let k = rng.gen_range(0..WORKING_SET);
                        (working[k].clone(), 1 + rng.gen_range(0..SEEDS_PER_NETLIST))
                    };
                    let circuit = CircuitSource::Inline(text);
                    frames.push(b.sim(request(circuit, DEFAULT_STIMULI, seed, timings)));
                }
                let c17 = c17_revision(None, &mut rng);
                let base = request(CircuitSource::Inline(c17), DEFAULT_STIMULI, 0, timings);
                let compare = compare_frames(&mut b, &base);
                (rotations(&frames, CONNECTIONS), compare)
            }
        };
        Self {
            workload,
            conns,
            compare,
            expects: b.expects,
        }
    }
}

/// Closed-loop connections share one frame cycle, each starting at its
/// own offset so they interleave different frames.
fn rotations(frames: &[Frame], connections: usize) -> Vec<ConnPlan> {
    (0..connections)
        .map(|c| {
            let start = c * frames.len() / connections;
            ConnPlan {
                opens: Vec::new(),
                frames: frames[start..]
                    .iter()
                    .chain(&frames[..start])
                    .cloned()
                    .collect(),
            }
        })
        .collect()
}

/// One `edit_c17` connection: [`EDIT_SESSIONS`] sessions, each on its
/// own seed, then cycles of single-input deltas sent to the sessions in
/// turn. Each delta restores its session's previous edit to the baseline
/// stimulus and applies one new edit, so a session is always its baseline
/// plus exactly one edit and every reply has a finite golden: the full
/// reference run with that one edit.
fn edit_conn(b: &mut FrameSet, rng: &mut StdRng, circuit: &Circuit, base: &SimRequest) -> ConnPlan {
    let spec = StimulusSpec::new(base.mu, base.sigma, base.transitions);
    let mut opens = Vec::with_capacity(EDIT_SESSIONS);
    let mut deltas = Vec::with_capacity(EDIT_SESSIONS);
    for s in 0..EDIT_SESSIONS {
        let session = s as u64 + 1;
        let sim = SimRequest {
            seed: rng.gen_range(1..1_000_000_000u64),
            ..base.clone()
        };
        let baseline = sigsim::random_stimuli(circuit, &spec, &mut StdRng::seed_from_u64(sim.seed));
        let restore = |net: &str| {
            let trace = &baseline[&circuit.find_net(net).expect("input net")];
            SessionEdit {
                net: net.to_string(),
                initial_high: trace.initial().is_high(),
                toggles: trace.toggles().to_vec(),
            }
        };
        // One edit per primary input, so every seed exercises the same
        // set of input cones; only the new stimuli and their order vary.
        let pool: Vec<SessionEdit> = circuit
            .inputs()
            .iter()
            .map(|&net| SessionEdit {
                net: circuit.net_name(net).to_string(),
                initial_high: rng.gen(),
                toggles: spec.sample(rng).toggles().to_vec(),
            })
            .collect();
        // A cyclic edit sequence with no edit repeated back to back (also
        // across the wrap-around), so every delta changes the session.
        let mut seq: Vec<usize> = Vec::with_capacity(EDIT_CYCLE);
        for i in 0..EDIT_CYCLE {
            let last = i + 1 == EDIT_CYCLE;
            let mut k = rng.gen_range(0..pool.len());
            while seq.last() == Some(&k) || (last && seq.first() == Some(&k)) {
                k = rng.gen_range(0..pool.len());
            }
            seq.push(k);
        }
        opens.push(b.frame(
            &Request::SessionOpen {
                id: 0,
                session,
                sim: sim.clone(),
            },
            Expect::Session {
                session,
                sim: untimed(&sim),
            },
            1,
        ));
        let frames: Vec<Frame> = (0..EDIT_CYCLE)
            .map(|i| {
                let prev = &pool[seq[(i + EDIT_CYCLE - 1) % EDIT_CYCLE]];
                let next = &pool[seq[i]];
                let mut edits = Vec::with_capacity(2);
                if prev.net != next.net {
                    edits.push(restore(&prev.net));
                }
                edits.push(next.clone());
                let expect = Expect::Sim {
                    sim: untimed(&sim),
                    edits: vec![next.clone()],
                };
                b.frame(
                    &Request::SessionDelta {
                        id: 0,
                        session,
                        edits,
                    },
                    expect,
                    1,
                )
            })
            .collect();
        deltas.push(frames);
    }
    // The sessions in turn; each still sees its own deltas in order, so
    // the chain of restores holds.
    let frames = (0..EDIT_CYCLE)
        .flat_map(|i| deltas.iter().map(move |d| d[i].clone()))
        .collect();
    ConnPlan { opens, frames }
}

/// Builds a request's circuit exactly as the daemon does on a cache
/// miss: the mapped built-in benchmark for names, [`sigcircuit::parse_circuit`]
/// plus [`map_for_simulation`] for inline netlists.
///
/// # Errors
///
/// Returns a message for unknown names and unparsable netlists.
pub fn build_circuit(source: &CircuitSource, policy: MappingPolicy) -> Result<Circuit, String> {
    match source {
        CircuitSource::Name(name) => Benchmark::by_name(name)
            .map(|b| b.circuit_for(policy).clone())
            .map_err(|n| format!("unknown benchmark {n:?}")),
        CircuitSource::Inline(text) => {
            let parsed = sigcircuit::parse_circuit(text, sigcircuit::sniff_format(text))
                .map_err(|e| e.to_string())?;
            Ok(map_for_simulation(parsed, policy))
        }
    }
}

/// Computes every golden of `expects` on `threads` threads: the encoded
/// reference reply after `{"id":` and the id digits, with the cache echo
/// normalized to `hit`.
///
/// # Errors
///
/// Returns the first reference-path failure.
pub fn goldens(expects: &[Expect], set: &ModelSet, threads: usize) -> Result<Vec<String>, String> {
    // Named benchmarks are built once and shared by every thread.
    let mut named: HashMap<String, Arc<Circuit>> = HashMap::new();
    for e in expects {
        if let CircuitSource::Name(name) = &e.sim().circuit {
            if !named.contains_key(name) {
                let circuit = build_circuit(&e.sim().circuit, set.policy)?;
                named.insert(name.clone(), Arc::new(circuit));
            }
        }
    }
    let threads = threads.max(1);
    let mut out: Vec<Option<Result<String, String>>> = vec![None; expects.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let named = &named;
                scope.spawn(move || {
                    (t..expects.len())
                        .step_by(threads)
                        .map(|i| (i, golden(&expects[i], set, named)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, g) in worker.join().expect("golden worker panicked") {
                out[i] = Some(g);
            }
        }
    });
    out.into_iter()
        .map(|g| g.expect("every golden computed"))
        .collect()
}

fn golden(
    expect: &Expect,
    set: &ModelSet,
    named: &HashMap<String, Arc<Circuit>>,
) -> Result<String, String> {
    let inline;
    let circuit: &Circuit = match &expect.sim().circuit {
        CircuitSource::Name(name) => &named[name],
        source @ CircuitSource::Inline(_) => {
            inline = build_circuit(source, set.policy)?;
            &inline
        }
    };
    let fail = |(kind, message): (sigserve::ErrorKind, String)| format!("{kind}: {message}");
    let hit = CacheOutcome::Hit;
    let response = match expect {
        Expect::Sim { sim, edits } => Response::Sim {
            id: 0,
            result: run_sim_edited(circuit, set, sim, edits, hit).map_err(fail)?,
        },
        Expect::Session { session, sim } => Response::Session {
            id: 0,
            session: *session,
            result: run_sim(circuit, set, sim, hit).map_err(fail)?,
        },
    };
    Ok(tail(&encode_response(&response)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_tails(plan: &Plan) -> Vec<&str> {
        plan.conns
            .iter()
            .flat_map(|c| c.opens.iter().chain(&c.frames))
            .chain(&plan.compare)
            .map(|f| f.tail.as_str())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_frames_and_another_seed_different_ones() {
        for w in Workload::ALL {
            let a = Plan::new(w, 41, false);
            let b = Plan::new(w, 41, false);
            assert_eq!(a, b, "{}", w.name());
            let c = Plan::new(w, 42, false);
            assert_ne!(all_tails(&a), all_tails(&c), "{}", w.name());
        }
    }

    #[test]
    fn timings_change_frames_but_not_goldens() {
        for w in Workload::ALL {
            let plain = Plan::new(w, 9, false);
            let timed = Plan::new(w, 9, true);
            assert_eq!(plain.expects, timed.expects, "{}", w.name());
            let f = timed.conns[0]
                .opens
                .first()
                .unwrap_or(&timed.conns[0].frames[0]);
            assert!(f.tail.contains("\"timings\":true"), "{}", w.name());
            assert!(!plain.conns[0].frames[0].tail.contains("timings"));
        }
    }

    #[test]
    fn frames_decode_and_every_fresh_revision_is_distinct() {
        for w in Workload::ALL {
            let plan = Plan::new(w, 3, false);
            for tail in all_tails(&plan) {
                let line = format!("{{\"id\":7{tail}");
                sigserve::decode_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
        let plan = Plan::new(Workload::SmallInline, 3, false);
        let frames = &plan.conns[0].frames;
        let fresh: std::collections::HashSet<&str> = frames
            .iter()
            .skip(FRESH_EVERY - 1)
            .step_by(FRESH_EVERY)
            .map(|f| f.tail.as_str())
            .collect();
        assert_eq!(fresh.len(), INLINE_CYCLE / FRESH_EVERY);
        // Working set plus fresh revisions, over the stimulus seeds.
        assert!(plan.expects.len() <= WORKING_SET * 4 + INLINE_CYCLE / FRESH_EVERY + 2);
    }

    #[test]
    fn edit_sessions_stay_baseline_plus_one_edit() {
        let plan = Plan::new(Workload::EditC17, 5, false);
        assert_eq!(plan.conns.len(), CONNECTIONS);
        let conn = &plan.conns[1];
        assert_eq!(conn.opens.len(), EDIT_SESSIONS);
        assert_eq!(conn.frames.len(), EDIT_SESSIONS * EDIT_CYCLE);
        // Each session's current edit; the first cycle only fills it, the
        // second checks that every delta restores exactly that edit.
        let mut current: HashMap<u64, SessionEdit> = HashMap::new();
        for (i, f) in conn.frames.iter().chain(&conn.frames).enumerate() {
            let line = format!("{{\"id\":1{}", f.tail);
            let Ok(Request::SessionDelta { session, edits, .. }) = sigserve::decode_request(&line)
            else {
                panic!("not a delta: {line}");
            };
            assert_eq!(session, (i % EDIT_SESSIONS) as u64 + 1);
            let Expect::Sim { edits: golden, .. } = &plan.expects[f.expect] else {
                panic!("delta golden must be a sim reply");
            };
            assert_eq!(golden.len(), 1);
            assert_eq!(edits.last(), golden.first(), "the new edit comes last");
            if i >= conn.frames.len() {
                let prev = &current[&session];
                assert_ne!(prev, &golden[0], "every delta changes the session");
                match edits.len() {
                    1 => assert_eq!(prev.net, edits[0].net, "the new edit replaces the old"),
                    2 => {
                        assert_eq!(prev.net, edits[0].net, "the old edit is restored");
                        assert_ne!(edits[0].net, edits[1].net);
                    }
                    n => panic!("{n} edits in one delta"),
                }
            }
            current.insert(session, golden[0].clone());
        }
        // Every primary input is edited.
        let circuit = sigcircuit::c17();
        let edited: std::collections::HashSet<&str> = plan
            .expects
            .iter()
            .filter_map(|e| match e {
                Expect::Sim { edits, .. } => edits.first().map(|e| e.net.as_str()),
                Expect::Session { .. } => None,
            })
            .collect();
        assert_eq!(edited.len(), circuit.inputs().len());
    }

    #[test]
    fn c17_base_revision_is_c17() {
        let mut rng = StdRng::seed_from_u64(0);
        let parsed = sigcircuit::parse_circuit(
            &c17_revision(None, &mut rng),
            sigcircuit::CircuitFormat::Bench,
        )
        .expect("parses");
        assert_eq!(parsed.fingerprint(), sigcircuit::c17().fingerprint());
    }
}
