//! Exhaustive schedule exploration — a bounded model checker for the ring
//! model.
//!
//! Random and adversarial schedulers *sample* executions; this module
//! *enumerates* them. Starting from `C_0`, it walks the full graph of
//! schedules (every enabled activation at every configuration), memoising
//! visited configurations, and checks a user predicate at every terminal
//! (quiescent) configuration.
//!
//! Two strong guarantees fall out of a successful exploration:
//!
//! * **safety** — every maximal execution ends in a configuration
//!   satisfying the predicate (e.g. Definition 1/2 uniform deployment);
//! * **termination under every schedule** — the explored state graph is
//!   acyclic (a cycle would be an infinite execution that never makes new
//!   progress, i.e. a livelock).
//!
//! Because the paper's schedules are *arbitrary fair* interleavings and
//! every finite execution prefix appears in the graph, exhaustive success
//! on an instance is a machine-checked proof of the algorithm's
//! correctness on that instance — far stronger than any number of random
//! runs.
//!
//! # The [`Explorer`] engine
//!
//! State counts explode with `n` and `k`; the engine fights back on three
//! fronts, configured through the [`Explorer`] builder:
//!
//! * **rotation symmetry reduction** ([`SymmetryMode::Rotation`], the
//!   default): nodes and agents are anonymous, so all `n` rotations of a
//!   configuration are behaviourally equivalent; the visited set stores
//!   one [`canonical_fingerprint`] per rotation class instead of `n`
//!   plain fingerprints. On an instance whose initial configuration has
//!   symmetry degree `l`, this cuts visited states by up to `l`×. See
//!   [`crate::canonical`] for the canonical form and the soundness
//!   argument; it requires the terminal predicate to be
//!   rotation-invariant (the Definition 1/2 predicates are).
//! * **one reversible walk kernel**: every search in this crate — the
//!   serial engine, each work-stealing task and the worst-case search
//!   of [`crate::adversary`] — is a visitor of one in-place DFS over one
//!   live ring. Children are generated with [`Ring::apply`]/[`Ring::undo`]
//!   — an exactly-invertible step that records only the mutated cells,
//!   so there is no per-child deep clone; canonical fingerprints are
//!   maintained incrementally (only the ≤ 2 symbols a step touches are
//!   re-derived; the min-rotation is recomputed on the patched vector);
//!   and all live states share one activation arena. The kernel runs
//!   admit → expand → undo; the visitor decides per child whether to
//!   expand it, fold it or stop. The pre-0.5 clone-based DFS is retained
//!   verbatim as [`Explorer::run_serial_reference`], the differential
//!   oracle.
//! * **work-stealing parallel search** ([`Explorer::threads`]): every
//!   worker walks its tasks with the same kernel on a private scratch
//!   ring and donates untried sibling activations to a shared injector
//!   queue when it runs low — each donated child travels as a
//!   delta-encoded steal handoff (one `Arc`-shared
//!   [`PackedState`](crate::packed::PackedState) parent snapshot plus
//!   the `Copy` activation that produces the child). The visited set is
//!   a striped (64-shard, fingerprint-keyed) concurrent map; each
//!   fingerprint is admitted exactly once and each (state, activation)
//!   pair is expanded by exactly one worker, so `states` / `terminals` /
//!   [`terminal_fingerprints`](ExploreReport::terminal_fingerprints) /
//!   [`merge_edges`](ExploreReport::merge_edges) are byte-identical to
//!   the serial engines regardless of stealing order.
//!
//! The serial engines detect livelocks as DFS back-edges on the current
//! path; the work-stealing engine records the quotient edge list and
//! certifies acyclicity with a Kahn elimination after the sweep
//! ([`Explorer::certify_termination`] turns this off to save the edge
//! memory on very large sweeps — at the cost of the termination half of
//! the proof). [`Explorer::run_serial`] stays next to the stealing
//! engine because the daemon caches its reports: their
//! [`max_depth_seen`](ExploreReport::max_depth_seen) and
//! [`peak_frontier`](ExploreReport::peak_frontier) are DFS-path values,
//! while even a one-worker stealing run reports the peak count of
//! outstanding steal tasks as its frontier. Multi-worker runs may differ
//! from the serial engines on the scheduling-dependent diagnostics
//! ([`max_depth_seen`](ExploreReport::max_depth_seen),
//! [`peak_frontier`](ExploreReport::peak_frontier)) and on *which* error
//! they report when several exist; with one worker the whole report is
//! deterministic. Limit enforcement is race-free — a shared atomic state
//! budget gates on the visited-set insert, so each distinct state is
//! counted exactly once and a limit of `N` errors iff the space exceeds
//! `N` states, in every engine at every worker count. With non-binding
//! limits — the verification regime — the engines never disagree on
//! whether exploration succeeds.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::agent::Behavior;
use crate::canonical::{
    canonical_fingerprint, dihedral_fingerprint, dihedral_fingerprint_of_split,
    fingerprint_of_symbols_sealed, plain_fingerprint, DihedralScratch,
};
use crate::engine::{Ring, StepUndo};
use crate::error::SimError;
use crate::packed::PackedState;
use crate::scheduler::Activation;

/// Pass-through hasher for fingerprint-keyed sets and maps: fingerprints
/// are already well-mixed 64-bit hash outputs (SipHash for plain mode,
/// the multiply–xorshift seal for canonical mode), so re-hashing them
/// through SipHash on every visited-set probe — once per generated child
/// — is pure waste.
/// The retained clone-based reference engine keeps the default hasher:
/// it is preserved as the 0.4 baseline, probes and all.
#[derive(Default, Clone)]
pub(crate) struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys are u64 and hash via write_u64");
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

pub(crate) type FpBuildHasher = std::hash::BuildHasherDefault<FpHasher>;

/// Limits for an exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimits {
    /// Maximum number of distinct configurations to visit.
    pub max_states: usize,
    /// Maximum schedule length (DFS tree depth / BFS layer count).
    pub max_depth: usize,
}

impl ExploreLimits {
    /// Explicit limits.
    pub fn new(max_states: usize, max_depth: usize) -> Self {
        ExploreLimits {
            max_states,
            max_depth,
        }
    }

    /// Scales limits to the instance, like
    /// [`RunLimits::for_instance`](crate::RunLimits::for_instance): the
    /// depth budget tracks the paper's `O(kn)` move bounds with a generous
    /// constant, the state budget grows linearly with `k` from the default
    /// 2 M baseline.
    ///
    /// The arithmetic **saturates** at `usize::MAX`, so extreme `k`/`n`
    /// values degrade to "effectively unlimited" instead of overflowing —
    /// the same fix PR 2 applied to the run side, where the debug build
    /// panicked and the release build silently wrapped to a tiny budget
    /// that aborted valid explorations.
    pub fn for_instance(n: usize, k: usize) -> Self {
        ExploreLimits {
            max_states: 2_000_000usize.saturating_mul(k.max(1)),
            max_depth: 400usize
                .saturating_mul(k)
                .saturating_mul(n)
                .saturating_add(10_000),
        }
    }
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 2_000_000,
            max_depth: 1_000_000,
        }
    }
}

/// Which state-space quotient the explorer's visited set uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryMode {
    /// No reduction: every concrete configuration (up to the 64-bit
    /// fingerprint) is its own visited-set entry. Distinguishes rotations
    /// and supports terminal predicates that are *not*
    /// rotation-invariant.
    Off,
    /// Quotient by ring rotation (and the agent relabeling it induces):
    /// all `n` rotations of a configuration share one
    /// [`canonical_fingerprint`] entry. Sound for anonymous behaviors and
    /// rotation-invariant predicates — see [`crate::canonical`].
    #[default]
    Rotation,
    /// Quotient by the full dihedral group (rotations **and**
    /// reflections) plus relabeling of equally-stated staying agents:
    /// all `2n` dihedral images of a configuration share one
    /// [`dihedral_fingerprint`] entry. Rotation and relabeling are
    /// automorphisms of the directed ring; **reflection is not** (agents
    /// move forward, and reflection reverses what "forward" means), so
    /// this mode additionally requires the algorithm's reachable
    /// behavior to be direction-agnostic — validated per family by the
    /// Rotation-vs-Dihedral value-agreement suites; see `DESIGN.md`
    /// §0.11.
    Dihedral,
}

/// Outcome of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct configurations visited (rotation classes under
    /// [`SymmetryMode::Rotation`]).
    pub states: usize,
    /// Distinct terminal (quiescent) configurations reached.
    pub terminals: usize,
    /// Deepest schedule depth attempted: the longest DFS path for the
    /// serial engines; for the work-stealing engine, the deepest depth
    /// any worker reached (a donated subtree root inherits its parent's
    /// depth + 1). A state's first-visit depth depends on which path won
    /// the visited-set race, so with multiple workers this diagnostic is
    /// scheduling-dependent; with one worker it equals the serial
    /// engine's value.
    pub max_depth_seen: usize,
    /// Fingerprints of the terminal configurations, sorted ascending —
    /// the key to membership checks such as "does every terminal reached
    /// by a sampled run appear in the exhaustive terminal set?"
    /// ([`ExploreReport::contains_terminal`]).
    pub terminal_fingerprints: Vec<u64>,
    /// Back/cross-edge diagnostic: transitions whose target configuration
    /// had already been visited (diamonds from commuting activations, and
    /// — under symmetry reduction — rotated re-encounters). Equal to
    /// `edges − (states − 1)`, and identical between the serial and
    /// parallel engines.
    pub merge_edges: u64,
    /// Peak count of *live* states the engine held at once: the deepest
    /// DFS path for the serial engines; for the work-stealing engine,
    /// the peak number of outstanding steal tasks (queued + executing
    /// donated subtree roots — the states held as
    /// [`PackedState`](crate::packed::PackedState) snapshots at once).
    /// Multiplied by the per-state footprint this bounds the engine's
    /// snapshot working-set memory; like
    /// [`max_depth_seen`](ExploreReport::max_depth_seen) it is
    /// engine-specific and excluded from the differential-identity
    /// guarantees.
    pub peak_frontier: usize,
    /// Fingerprint of the canonical instance key this report answers
    /// (`InstanceKey::fingerprint` in `ringdeploy-analysis`), stamped by
    /// batch/service layers so cache identity is auditable from the
    /// report alone. `None` for ad-hoc explorations. Hex-encoded in
    /// JSON.
    pub instance_fingerprint: Option<u64>,
}

impl ExploreReport {
    /// Whether `fingerprint` (from [`canonical_fingerprint`] or
    /// [`plain_fingerprint`], matching the [`SymmetryMode`] the
    /// exploration ran under) is one of the terminal configurations.
    pub fn contains_terminal(&self, fingerprint: u64) -> bool {
        self.terminal_fingerprints
            .binary_search(&fingerprint)
            .is_ok()
    }
}

#[cfg(feature = "serde")]
mod json_impls {
    use super::ExploreReport;
    use ringdeploy_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for ExploreReport {
        /// Scalar fields only: the terminal fingerprint list (potentially
        /// thousands of entries) stays a programmatic API; JSON reports
        /// carry its cardinality as `terminals`.
        fn to_json(&self) -> Json {
            Json::object([
                ("states", self.states.to_json()),
                ("terminals", self.terminals.to_json()),
                ("max_depth_seen", self.max_depth_seen.to_json()),
                ("merge_edges", self.merge_edges.to_json()),
                ("peak_frontier", self.peak_frontier.to_json()),
                (
                    "instance_fingerprint",
                    // Hex-encoded: fingerprints use all 64 bits, JSON
                    // numbers only round-trip 53.
                    self.instance_fingerprint
                        .map(|fp| format!("{fp:016x}"))
                        .to_json(),
                ),
            ])
        }
    }

    impl FromJson for ExploreReport {
        /// Inverse of the scalar encoding; the terminal fingerprint list
        /// is not serialized (see [`ToJson`] above) and decodes empty.
        fn from_json(json: &Json) -> Result<Self, JsonError> {
            Ok(ExploreReport {
                states: json.field("states")?,
                terminals: json.field("terminals")?,
                max_depth_seen: json.field("max_depth_seen")?,
                terminal_fingerprints: Vec::new(),
                merge_edges: json.field("merge_edges")?,
                peak_frontier: json.field("peak_frontier")?,
                instance_fingerprint: {
                    let hex: Option<String> = json.optional_field("instance_fingerprint")?;
                    hex.map(|hex| {
                        u64::from_str_radix(&hex, 16).map_err(|_| {
                            JsonError::Decode(format!("bad instance_fingerprint hex `{hex}`"))
                        })
                    })
                    .transpose()?
                },
            })
        }
    }
}

/// Failures of an exhaustive exploration.
pub enum ExploreError<B: Behavior + Clone>
where
    B::Message: Clone,
{
    /// A terminal configuration violates the predicate; the offending ring
    /// is returned for inspection.
    ///
    /// The returned ring's *configuration* (tokens, places, queues,
    /// inboxes, behavior states, enabled set) is exactly the violating
    /// state. Its metrics/phase/step bookkeeping reflects the engine that
    /// found it: the path's own history for the serial in-place DFS, the
    /// capturing worker's scratch bookkeeping for the parallel engine
    /// (frontier snapshots deliberately do not carry schedule-history —
    /// see [`crate::packed`]).
    PredicateViolated {
        /// The violating quiescent configuration.
        ring: Box<Ring<B>>,
        /// Schedule depth at which it was reached.
        depth: usize,
    },
    /// A configuration repeats along one schedule: an infinite execution
    /// (livelock) exists.
    CycleDetected {
        /// Schedule depth at which the repeat was found (serial engines)
        /// or, for the work-stealing engine, the earliest first-seen
        /// depth among the states with cyclic ancestry — states on a
        /// cycle *or downstream of one* (Kahn elimination cannot tell
        /// the two apart without a full SCC pass), so the depth locates
        /// the entangled region, not necessarily a cycle member.
        depth: usize,
    },
    /// `max_states` or `max_depth` exceeded before the space was covered.
    LimitExceeded(SimError),
}

/// The shape of an [`ExploreError`] without the embedded ring — `Clone` +
/// `Eq`, for batch surfaces and reports that must not be generic over the
/// behavior type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreErrorKind {
    /// See [`ExploreError::PredicateViolated`].
    PredicateViolated {
        /// Schedule depth at which the violation was reached.
        depth: usize,
    },
    /// See [`ExploreError::CycleDetected`].
    CycleDetected {
        /// Schedule depth at which the repeat was found.
        depth: usize,
    },
    /// See [`ExploreError::LimitExceeded`].
    LimitExceeded(SimError),
}

impl std::fmt::Display for ExploreErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreErrorKind::PredicateViolated { depth } => {
                write!(
                    f,
                    "terminal configuration at depth {depth} violates the predicate"
                )
            }
            ExploreErrorKind::CycleDetected { depth } => {
                write!(
                    f,
                    "configuration repeats at depth {depth}: livelock possible"
                )
            }
            ExploreErrorKind::LimitExceeded(e) => write!(f, "exploration limits exceeded: {e}"),
        }
    }
}

impl std::error::Error for ExploreErrorKind {}

impl<B: Behavior + Clone> ExploreError<B>
where
    B::Message: Clone,
{
    /// The non-generic shape of this error (drops the embedded ring).
    pub fn kind(&self) -> ExploreErrorKind {
        match self {
            ExploreError::PredicateViolated { depth, .. } => {
                ExploreErrorKind::PredicateViolated { depth: *depth }
            }
            ExploreError::CycleDetected { depth } => {
                ExploreErrorKind::CycleDetected { depth: *depth }
            }
            ExploreError::LimitExceeded(e) => ExploreErrorKind::LimitExceeded(e.clone()),
        }
    }
}

impl<B: Behavior + Clone> std::fmt::Display for ExploreError<B>
where
    B::Message: Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind().fmt(f)
    }
}

impl<B: Behavior + Clone> std::fmt::Debug for ExploreError<B>
where
    B::Message: Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The embedded Ring is not Debug; render the human description.
        write!(f, "ExploreError({self})")
    }
}

impl<B: Behavior + Clone> std::error::Error for ExploreError<B> where B::Message: Clone {}

/// Exhaustively explores every schedule of `ring`, checking `terminal_ok`
/// at each quiescent configuration — the classic serial entry point,
/// equivalent to [`Explorer::run_serial`] with [`SymmetryMode::Off`].
///
/// Kept with its original signature (and its original semantics — no
/// symmetry quotient, so predicates need not be rotation-invariant);
/// scaling work goes through [`Explorer`].
///
/// # Errors
///
/// See [`ExploreError`].
pub fn explore_all_schedules<B>(
    ring: &Ring<B>,
    limits: ExploreLimits,
    terminal_ok: impl FnMut(&Ring<B>) -> bool,
) -> Result<ExploreReport, ExploreError<B>>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    Explorer::new()
        .limits(limits)
        .symmetry(SymmetryMode::Off)
        .run_serial(ring, terminal_ok)
}

/// Saved pre-step symbols of the ≤ 2 nodes one step touched — what
/// [`FingerprintCache::revert`] needs to roll the cache back alongside
/// [`Ring::undo`].
///
/// Slot indices `< n` address the node-symbol array (rotation mode) or
/// the node-part array (dihedral mode); indices `≥ n` address the
/// dihedral edge-part array at `slot − n`. Dihedral steps touch up to
/// two nodes × two parts = 4 slots.
#[derive(Clone, Copy)]
pub(crate) struct SymbolPatch {
    slots: [(usize, u64); 4],
    len: usize,
}

impl SymbolPatch {
    const EMPTY: SymbolPatch = SymbolPatch {
        slots: [(0, 0); 4],
        len: 0,
    };

    fn push(&mut self, slot: usize, old: u64) {
        self.slots[self.len] = (slot, old);
        self.len += 1;
    }
}

/// The explorer's incremental fingerprint state.
///
/// Under [`SymmetryMode::Rotation`] the per-node symbol vector is cached
/// and maintained across [`Ring::apply`]/[`Ring::undo`]: a step can only
/// change the symbols of the node it acted at and (for a move) the
/// destination node — symbols are node-local by construction
/// ([`Ring::node_symbol`]) — so the cache re-derives at most two symbols
/// per child and recomputes the minimal rotation of the patched vector
/// (progressive candidate elimination — see
/// [`ringdeploy_seq::min_rotation_elim`]). That
/// turns the per-child `O(n)` symbol extraction (`n` hash rounds over the
/// full local state) into `O(touched)`, leaving only the cheap `O(n)`
/// scan over bare `u64`s for min-rotation + sealing.
///
/// Under [`SymmetryMode::Off`] there is nothing to cache: the plain
/// fingerprint hashes the whole configuration by definition.
///
/// Shared with the worst-case schedule search ([`crate::adversary`]),
/// which walks the same reversible engine with the same incremental
/// fingerprints.
pub(crate) enum FingerprintCache {
    Plain,
    Rotation {
        symbols: Vec<u64>,
        /// Reused min-rotation candidate buffer
        /// ([`ringdeploy_seq::min_rotation_elim`]) — no allocation per
        /// fingerprint in the hot path.
        minrot: Vec<usize>,
    },
    Dihedral {
        /// Node parts of the split symbols
        /// ([`Ring::node_symbol_split`]).
        nodes: Vec<u64>,
        /// Edge parts, parallel to `nodes`.
        edges: Vec<u64>,
        /// Reused forward/reflected-reading and candidate buffers.
        scratch: DihedralScratch,
    },
}

impl FingerprintCache {
    pub(crate) fn new<B>(mode: SymmetryMode, ring: &Ring<B>) -> Self
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match mode {
            SymmetryMode::Off => FingerprintCache::Plain,
            SymmetryMode::Rotation => FingerprintCache::Rotation {
                symbols: ring.node_symbols(),
                minrot: Vec::new(),
            },
            SymmetryMode::Dihedral => {
                let (nodes, edges) = ring.node_symbols_split();
                FingerprintCache::Dihedral {
                    nodes,
                    edges,
                    scratch: DihedralScratch::default(),
                }
            }
        }
    }

    /// Re-derives the whole symbol vector — called once per frontier
    /// state by the parallel workers after restoring a packed snapshot.
    pub(crate) fn reset<B>(&mut self, ring: &Ring<B>)
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match self {
            FingerprintCache::Plain => {}
            FingerprintCache::Rotation { symbols, .. } => {
                symbols.clear();
                symbols.extend((0..ring.ring_size()).map(|v| ring.node_symbol(v)));
            }
            FingerprintCache::Dihedral { nodes, edges, .. } => {
                nodes.clear();
                edges.clear();
                for v in 0..ring.ring_size() {
                    let (np, ep) = ring.node_symbol_split(v);
                    nodes.push(np);
                    edges.push(ep);
                }
            }
        }
    }

    /// The fingerprint of the ring's current state (which the cache must
    /// be in sync with).
    pub(crate) fn fingerprint<B>(&mut self, ring: &Ring<B>) -> u64
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match self {
            FingerprintCache::Plain => plain_fingerprint(ring),
            FingerprintCache::Rotation { symbols, minrot } => fingerprint_of_symbols_sealed(
                ring.ring_size(),
                ring.agent_count(),
                symbols,
                minrot,
                ring.fault_seal_word(),
            ),
            FingerprintCache::Dihedral {
                nodes,
                edges,
                scratch,
            } => dihedral_fingerprint_of_split(
                ring.ring_size(),
                ring.agent_count(),
                nodes,
                edges,
                scratch,
                ring.fault_seal_word(),
            ),
        }
    }

    /// Called right after [`Ring::apply`]: refreshes the symbols of the
    /// touched nodes, returning their previous values for [`revert`].
    ///
    /// [`revert`]: FingerprintCache::revert
    pub(crate) fn patch<B>(&mut self, ring: &Ring<B>, undo: &StepUndo<B>) -> SymbolPatch
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        let mut patch = SymbolPatch::EMPTY;
        let n = ring.ring_size();
        let v = undo.acted_at().index();
        let dest = undo.moved_to(n).map(|d| d.index()).filter(|&d| d != v);
        match self {
            FingerprintCache::Plain => {}
            FingerprintCache::Rotation { symbols, .. } => {
                patch.push(v, symbols[v]);
                symbols[v] = ring.node_symbol(v);
                if let Some(d) = dest {
                    patch.push(d, symbols[d]);
                    symbols[d] = ring.node_symbol(d);
                }
            }
            FingerprintCache::Dihedral { nodes, edges, .. } => {
                for u in [v].into_iter().chain(dest) {
                    patch.push(u, nodes[u]);
                    patch.push(n + u, edges[u]);
                    let (np, ep) = ring.node_symbol_split(u);
                    nodes[u] = np;
                    edges[u] = ep;
                }
            }
        }
        patch
    }

    /// Rolls the cache back alongside [`Ring::undo`].
    pub(crate) fn revert(&mut self, patch: SymbolPatch) {
        match self {
            FingerprintCache::Plain => {}
            FingerprintCache::Rotation { symbols, .. } => {
                for &(v, old) in patch.slots[..patch.len].iter() {
                    symbols[v] = old;
                }
            }
            FingerprintCache::Dihedral { nodes, edges, .. } => {
                let n = nodes.len();
                for &(slot, old) in patch.slots[..patch.len].iter() {
                    if slot < n {
                        nodes[slot] = old;
                    } else {
                        edges[slot - n] = old;
                    }
                }
            }
        }
    }
}

/// A child the [`Walk`] just generated: the live ring is in the child's
/// state, one [`Ring::apply`] below its parent.
pub(crate) struct Child<'a, B: Behavior> {
    pub(crate) ring: &'a Ring<B>,
    pub(crate) act: Activation,
    pub(crate) undo: &'a StepUndo<B>,
    pub(crate) fp: u64,
    /// Schedule depth of the child.
    pub(crate) depth: usize,
    /// Fingerprint of the state the child was generated from.
    pub(crate) parent_fp: u64,
}

/// The bookkeeping one search keeps on top of the [`Walk`] kernel: the
/// serial explorer's path map and report, a steal task's shared visited
/// map, edge log and donations, the adversary's Bellman values.
pub(crate) trait Visitor<B: Behavior> {
    /// The payload each live state on the DFS path carries.
    type Frame;
    /// Why a walk stops early.
    type Break;

    /// Runs before the next child of the deepest live state (fingerprint
    /// `fp`, schedule depth `depth`) is generated. Returns how many of
    /// its `untried` activations, taken from the end, were handed
    /// elsewhere; the walk drops them.
    fn before_child(
        &mut self,
        _ring: &Ring<B>,
        _fp: u64,
        _depth: usize,
        _frame: &mut Self::Frame,
        _untried: &[Activation],
    ) -> ControlFlow<Self::Break, usize> {
        ControlFlow::Continue(0)
    }

    /// The error that stops the walk when `limit` (the depth limit, or
    /// the visitor's own state limit) is exceeded.
    fn exceeded(&mut self, limit: usize) -> Self::Break;

    /// Decides a generated child: `Some(frame)` expands it, `None` folds
    /// it (the walk undoes the step).
    fn admit(
        &mut self,
        child: Child<'_, B>,
        parent: &mut Self::Frame,
    ) -> ControlFlow<Self::Break, Option<Self::Frame>>;

    /// Runs once every child of a state is done, after the walk has
    /// returned the ring to the state's parent (`None`: the walk's root).
    fn leave(&mut self, _fp: u64, _frame: Self::Frame, _parent: Option<&mut Self::Frame>) {}
}

/// One live state on the walk's DFS path: its fingerprint, its slice of
/// the shared activation arena, the undo record that returns the ring to
/// its parent, and the visitor's payload.
struct Frame<B: Behavior, X> {
    fp: u64,
    acts_start: usize,
    next: usize,
    undo: Option<(StepUndo<B>, SymbolPatch)>,
    data: X,
}

/// The one in-place DFS over the reversible engine. It owns the live
/// ring, its [`FingerprintCache`], the activation arena (the enabled
/// slices of all live states, truncated on frame pop — no per-state
/// allocation in steady state) and the frame stack, enforces the depth
/// limit, and runs the admit → expand → undo loop for every search: the
/// serial explorer, each work-stealing task and the adversary are
/// [`Visitor`]s of it.
pub(crate) struct Walk<B: Behavior, X> {
    pub(crate) ring: Ring<B>,
    pub(crate) cache: FingerprintCache,
    arena: Vec<Activation>,
    stack: Vec<Frame<B, X>>,
    max_depth: usize,
    /// Deepest schedule depth attempted, over every run of this walk.
    pub(crate) max_depth_seen: usize,
}

impl<B, X> Walk<B, X>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    /// A walk over a traceless copy of `ring`.
    pub(crate) fn new(ring: &Ring<B>, symmetry: SymmetryMode, max_depth: usize) -> Self {
        let ring = ring.clone_for_exploration();
        let cache = FingerprintCache::new(symmetry, &ring);
        Walk {
            ring,
            cache,
            arena: Vec::new(),
            stack: Vec::new(),
            max_depth,
            max_depth_seen: 0,
        }
    }

    /// Walks depth-first from the ring's current state — fingerprint
    /// `fp`, schedule depth `depth`, payload `data` — through `only` if
    /// given, else through every enabled activation. On `Continue` the
    /// ring is back at the root; on `Break` it stays where the visitor
    /// stopped (the child itself when `admit` broke).
    pub(crate) fn run<V>(
        &mut self,
        visitor: &mut V,
        fp: u64,
        depth: usize,
        data: X,
        only: Option<Activation>,
    ) -> ControlFlow<V::Break>
    where
        V: Visitor<B, Frame = X>,
    {
        self.arena.clear();
        self.stack.clear();
        match only {
            Some(act) => self.arena.push(act),
            None => self
                .arena
                .extend_from_slice(self.ring.enabled_activations()),
        }
        self.stack.push(Frame {
            fp,
            acts_start: 0,
            next: 0,
            undo: None,
            data,
        });
        loop {
            // Schedule depth of the next child of the deepest live state.
            let child_depth = depth + self.stack.len();
            let Some(top) = self.stack.last_mut() else {
                return ControlFlow::Continue(());
            };
            let untried = &self.arena[top.acts_start + top.next..];
            if untried.is_empty() {
                // All children done: return to the parent state.
                let frame = self.stack.pop().expect("stack is non-empty");
                self.arena.truncate(frame.acts_start);
                if let Some((undo, patch)) = frame.undo {
                    self.cache.revert(patch);
                    self.ring.undo(undo);
                }
                let parent = self.stack.last_mut().map(|f| &mut f.data);
                visitor.leave(frame.fp, frame.data, parent);
                continue;
            }
            let handed = visitor.before_child(
                &self.ring,
                top.fp,
                child_depth - 1,
                &mut top.data,
                untried,
            )?;
            if handed > 0 {
                self.arena.truncate(self.arena.len() - handed);
                continue;
            }
            let act = untried[0];
            top.next += 1;
            self.max_depth_seen = self.max_depth_seen.max(child_depth);
            if child_depth > self.max_depth {
                return ControlFlow::Break(visitor.exceeded(self.max_depth));
            }
            let undo = self.ring.apply(act);
            let patch = self.cache.patch(&self.ring, &undo);
            let child_fp = self.cache.fingerprint(&self.ring);
            let child = Child {
                ring: &self.ring,
                act,
                undo: &undo,
                fp: child_fp,
                depth: child_depth,
                parent_fp: top.fp,
            };
            match visitor.admit(child, &mut top.data)? {
                Some(data) => {
                    let acts_start = self.arena.len();
                    self.arena
                        .extend_from_slice(self.ring.enabled_activations());
                    self.stack.push(Frame {
                        fp: child_fp,
                        acts_start,
                        next: 0,
                        undo: Some((undo, patch)),
                        data,
                    });
                }
                None => {
                    self.cache.revert(patch);
                    self.ring.undo(undo);
                }
            }
        }
    }
}

/// The limit error every search reports.
pub(crate) fn limit_exceeded(limit: usize) -> SimError {
    SimError::StepLimitExceeded {
        limit: limit as u64,
    }
}

/// Number of mutex-guarded partitions of the parallel visited map. A
/// power of two well above any realistic worker count, so contention is
/// dominated by the hash distribution, not the shard count.
const VISITED_SHARDS: usize = 64;

/// The configurable exploration engine. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use ringdeploy_sim::explore::{Explorer, SymmetryMode};
/// # use ringdeploy_sim::{Action, Behavior, InitialConfig, Observation, Ring};
/// # #[derive(Clone, Hash)]
/// # struct Hop { left: usize, released: bool }
/// # impl Behavior for Hop {
/// #     type Message = ();
/// #     fn act(&mut self, _o: &Observation<'_, ()>) -> Action<()> {
/// #         let release = !std::mem::replace(&mut self.released, true);
/// #         if self.left > 0 { self.left -= 1; Action::moving().with_token_release(release) }
/// #         else { Action::halting().with_token_release(release) }
/// #     }
/// #     fn memory_bits(&self) -> usize { 8 }
/// # }
/// let init = InitialConfig::new(6, vec![0, 3])?;
/// let ring = Ring::new(&init, |_| Hop { left: 2, released: false });
/// let report = Explorer::new()
///     .symmetry(SymmetryMode::Rotation)
///     .threads(2)
///     .run(&ring, |r| r.links_empty())?;
/// assert_eq!(report.terminals, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    limits: ExploreLimits,
    symmetry: SymmetryMode,
    threads: Option<usize>,
    certify_termination: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

impl Explorer {
    /// Default engine: default [`ExploreLimits`],
    /// [`SymmetryMode::Rotation`], one worker per available core,
    /// termination certification on.
    pub fn new() -> Self {
        Explorer {
            limits: ExploreLimits::default(),
            symmetry: SymmetryMode::default(),
            threads: None,
            certify_termination: true,
        }
    }

    /// Overrides the exploration limits.
    pub fn limits(mut self, limits: ExploreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects the state-space quotient (default:
    /// [`SymmetryMode::Rotation`]).
    pub fn symmetry(mut self, symmetry: SymmetryMode) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Sets the worker-thread count (default: available parallelism).
    /// Every count — including `1` — runs the work-stealing engine
    /// through [`Explorer::run`]; a single worker simply never donates,
    /// so the same code path is exercised (and testable) at every width.
    /// The dedicated serial DFS remains available as
    /// [`Explorer::run_serial`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Whether the **work-stealing** engine records the quotient edge
    /// list and certifies acyclicity after the sweep (default: `true`).
    /// Turning this off drops the termination half of the proof in
    /// exchange for `O(edges)` less memory; the serial engine always
    /// detects cycles (its DFS path makes them free).
    pub fn certify_termination(mut self, certify: bool) -> Self {
        self.certify_termination = certify;
        self
    }

    /// The fingerprint function selected by the symmetry mode.
    fn fingerprint<B>(&self, ring: &Ring<B>) -> u64
    where
        B: Behavior + Hash,
        B::Message: Hash,
    {
        match self.symmetry {
            SymmetryMode::Off => plain_fingerprint(ring),
            SymmetryMode::Rotation => canonical_fingerprint(ring),
            SymmetryMode::Dihedral => dihedral_fingerprint(ring),
        }
    }

    /// Explores every schedule of `ring` with the work-stealing engine at
    /// the configured worker count. A single worker runs the *same*
    /// engine (it just never donates work), so `threads(1)` is a
    /// first-class, testable configuration rather than a silent reroute
    /// to [`Explorer::run_serial`] — and with one worker the whole
    /// report, diagnostics included, is deterministic.
    ///
    /// Under [`SymmetryMode::Rotation`] the predicate must be invariant
    /// under rotation and agent relabeling (the Definition 1/2 uniform
    /// deployment predicates are): it is evaluated on one representative
    /// per equivalence class.
    ///
    /// # Errors
    ///
    /// See [`ExploreError`].
    pub fn run<B>(
        &self,
        ring: &Ring<B>,
        terminal_ok: impl Fn(&Ring<B>) -> bool + Sync,
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash + Send + Sync,
        B::Message: Clone + Hash + Send + Sync,
    {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        self.run_stealing(ring, threads, &terminal_ok)
    }

    /// The serial engine: a **clone-free, in-place DFS** over one live
    /// ring — the [`Walk`] kernel with the serial visitor. Children are
    /// generated with the reversible [`Ring::apply`]/[`Ring::undo`] pair
    /// instead of deep-cloning the parent per successor, and under
    /// [`SymmetryMode::Rotation`] the canonical fingerprint is computed
    /// from a cached symbol vector patched at the ≤ 2 nodes a step touches
    /// (the min-rotation is then recomputed on the patched vector) instead
    /// of re-deriving all `n` symbols per state. The only clone left in
    /// the hot path is the violation capture when a terminal fails the
    /// predicate.
    ///
    /// Livelocks are detected as back-edges on the DFS path, exactly as in
    /// the retained clone-based reference
    /// ([`Explorer::run_serial_reference`]), and the deterministic report
    /// fields (`states`, `terminals`, `terminal_fingerprints`,
    /// `merge_edges`) are identical to it and to the parallel engine —
    /// `tests/explorer_differential.rs` pins all three against each other.
    /// `max_depth_seen`/`peak_frontier` may differ from the reference:
    /// the two DFS engines expand children in opposite sibling order, so
    /// their spanning trees (and hence first-visit depths) can differ.
    ///
    /// # Errors
    ///
    /// See [`ExploreError`].
    pub fn run_serial<B>(
        &self,
        ring: &Ring<B>,
        terminal_ok: impl FnMut(&Ring<B>) -> bool,
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        if self.limits.max_states == 0 {
            return Err(ExploreError::LimitExceeded(limit_exceeded(0)));
        }
        let mut walk = Walk::new(ring, self.symmetry, self.limits.max_depth);
        let root_fp = walk.cache.fingerprint(&walk.ring);
        let mut serial = Serial {
            max_states: self.limits.max_states,
            visited: HashMap::default(),
            report: ExploreReport {
                states: 1,
                terminals: 0,
                max_depth_seen: 0,
                terminal_fingerprints: Vec::new(),
                merge_edges: 0,
                peak_frontier: 1,
                instance_fingerprint: None,
            },
            terminal_ok,
        };
        serial.visited.insert(root_fp, ON_PATH);
        if walk.ring.enabled_activations().is_empty() {
            serial.report.terminals = 1;
            serial.report.terminal_fingerprints = vec![root_fp];
            if !(serial.terminal_ok)(&walk.ring) {
                return Err(ExploreError::PredicateViolated {
                    ring: Box::new(walk.ring),
                    depth: 0,
                });
            }
            return Ok(serial.report);
        }
        if let ControlFlow::Break(err) = walk.run(&mut serial, root_fp, 0, (), None) {
            return Err(err);
        }
        serial.report.max_depth_seen = walk.max_depth_seen;
        serial.report.terminal_fingerprints.sort_unstable();
        Ok(serial.report)
    }

    /// The **retained clone-based reference engine** — the pre-0.5 serial
    /// DFS that deep-clones the parent ring per child expansion and
    /// recomputes every fingerprint from scratch. Kept verbatim (modulo
    /// traceless root cloning) as the differential oracle for the
    /// clone-free [`run_serial`](Explorer::run_serial) and the packed
    /// parallel engine, and as the baseline of the `explore_scale`
    /// expansion-throughput gate. Never use it for real exploration.
    ///
    /// # Errors
    ///
    /// See [`ExploreError`].
    pub fn run_serial_reference<B>(
        &self,
        ring: &Ring<B>,
        mut terminal_ok: impl FnMut(&Ring<B>) -> bool,
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash,
        B::Message: Clone + Hash,
    {
        let limits = self.limits;
        let mut visited: HashSet<u64> = HashSet::new();
        let mut on_path: HashSet<u64> = HashSet::new();
        let mut terminal_fps: Vec<u64> = Vec::new();
        let mut report = ExploreReport {
            states: 0,
            terminals: 0,
            max_depth_seen: 0,
            terminal_fingerprints: Vec::new(),
            merge_edges: 0,
            peak_frontier: 0,
            instance_fingerprint: None,
        };

        enum Frame<B: Behavior + Clone>
        where
            B::Message: Clone,
        {
            /// Explore this state (push children).
            Enter(Box<Ring<B>>, usize),
            /// Pop the path entry for this fingerprint.
            Leave(u64),
        }

        let mut stack: Vec<Frame<B>> =
            vec![Frame::Enter(Box::new(ring.clone_for_exploration()), 0)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Leave(fp) => {
                    on_path.remove(&fp);
                }
                Frame::Enter(state, depth) => {
                    report.max_depth_seen = report.max_depth_seen.max(depth);
                    if depth > limits.max_depth {
                        return Err(ExploreError::LimitExceeded(limit_exceeded(
                            limits.max_depth,
                        )));
                    }
                    let fp = self.fingerprint(&state);
                    if on_path.contains(&fp) {
                        return Err(ExploreError::CycleDetected { depth });
                    }
                    if !visited.insert(fp) {
                        report.merge_edges += 1;
                        continue;
                    }
                    report.states += 1;
                    if report.states > limits.max_states {
                        return Err(ExploreError::LimitExceeded(limit_exceeded(
                            limits.max_states,
                        )));
                    }
                    if state.enabled_activations().is_empty() {
                        report.terminals += 1;
                        terminal_fps.push(fp);
                        if !terminal_ok(&state) {
                            return Err(ExploreError::PredicateViolated { ring: state, depth });
                        }
                        continue;
                    }
                    on_path.insert(fp);
                    report.peak_frontier = report.peak_frontier.max(on_path.len());
                    stack.push(Frame::Leave(fp));
                    // Index loop over the borrowed enabled slice —
                    // allocation-free in the checker's innermost loop
                    // (`Activation` is `Copy`; the child is a fresh clone).
                    for i in 0..state.enabled_activations().len() {
                        let act = state.enabled_activations()[i];
                        let mut child = state.as_ref().clone();
                        child.step(act);
                        stack.push(Frame::Enter(Box::new(child), depth + 1));
                    }
                }
            }
        }
        terminal_fps.sort_unstable();
        report.terminal_fingerprints = terminal_fps;
        Ok(report)
    }

    /// The **work-stealing engine**: every worker runs the [`Walk`]
    /// kernel of [`run_serial`](Explorer::run_serial) on its own scratch
    /// ring, and load-balances by *donating* untried sibling activations
    /// of its deepest live state to a shared [`Injector`] whenever the
    /// queue runs low. A donated child travels as a delta-encoded steal
    /// handoff — one `Arc`-shared [`PackedState`] snapshot of the parent
    /// plus the `Copy` [`Activation`] that produces the child — so
    /// donating `m` siblings costs one pack, not `m`.
    ///
    /// Determinism: the striped visited map admits each fingerprint
    /// exactly once, and each (state, activation) pair is expanded by
    /// exactly one worker (its discoverer, or the stealer it was donated
    /// to — the donor removes donated activations from its own list), so
    /// the transition multiset — and with it `states`, `terminals`,
    /// sorted `terminal_fingerprints` and `merge_edges` — is a function
    /// of the quotient graph alone, independent of stealing order.
    fn run_stealing<B>(
        &self,
        ring: &Ring<B>,
        threads: usize,
        terminal_ok: &(impl Fn(&Ring<B>) -> bool + Sync),
    ) -> Result<ExploreReport, ExploreError<B>>
    where
        B: Behavior + Clone + Hash + Send + Sync,
        B::Message: Clone + Hash + Send + Sync,
    {
        let root_fp = self.fingerprint(ring);
        if self.limits.max_states == 0 {
            return Err(ExploreError::LimitExceeded(limit_exceeded(0)));
        }
        if ring.enabled_activations().is_empty() {
            if !terminal_ok(ring) {
                return Err(ExploreError::PredicateViolated {
                    ring: Box::new(ring.clone()),
                    depth: 0,
                });
            }
            return Ok(ExploreReport {
                states: 1,
                terminals: 1,
                max_depth_seen: 0,
                terminal_fingerprints: vec![root_fp],
                merge_edges: 0,
                peak_frontier: 1,
                instance_fingerprint: None,
            });
        }

        let visited = ShardedVisited::new();
        visited.insert(root_fp, 0);
        let state_count = AtomicUsize::new(1);
        let limit_slot: Mutex<Option<SimError>> = Mutex::new(None);
        let injector = Injector::new(threads);
        injector.push_batch(std::iter::once(StealTask {
            parent: Arc::new(PackedState::pack(ring)),
            parent_fp: root_fp,
            act: None,
            depth: 0,
        }));
        let ctx = StealCtx {
            explorer: self,
            injector: &injector,
            visited: &visited,
            state_count: &state_count,
            limit: &limit_slot,
            terminal_ok,
            threads,
        };

        let outs: Vec<Stealer<'_, '_, B, _>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| steal_worker_loop(ring, &ctx)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("steal worker panicked"))
                .collect()
        });

        // Error precedence mirrors the old layered engine: limits first
        // (once a limit fires, every worker stops early and the other
        // diagnostics are incomplete), then the smallest-fingerprint
        // predicate violation (deterministic regardless of which worker
        // captured it), then the post-sweep acyclicity check.
        if let Some(err) = ctx
            .limit
            .lock()
            .expect("explorer limit slot poisoned")
            .take()
        {
            return Err(ExploreError::LimitExceeded(err));
        }
        let mut terminal_fps: Vec<u64> = Vec::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let mut edge_count: u64 = 0;
        let mut max_depth_seen: usize = 0;
        let mut violation: Option<(u64, usize, Box<Ring<B>>)> = None;
        for mut out in outs {
            terminal_fps.append(&mut out.terminals);
            edges.append(&mut out.edges);
            edge_count += out.edge_count;
            max_depth_seen = max_depth_seen.max(out.max_depth);
            if let Some((fp, depth, ring)) = out.violation.take() {
                match &violation {
                    Some((best, _, _)) if *best <= fp => {}
                    _ => violation = Some((fp, depth, ring)),
                }
            }
        }
        if let Some((_, depth, ring)) = violation {
            return Err(ExploreError::PredicateViolated { ring, depth });
        }
        let states = state_count.load(Ordering::Relaxed);
        if self.certify_termination {
            if let Some(depth) = find_cycle(&mut edges, &visited) {
                return Err(ExploreError::CycleDetected { depth });
            }
        }
        terminal_fps.sort_unstable();
        Ok(ExploreReport {
            states,
            terminals: terminal_fps.len(),
            max_depth_seen,
            merge_edges: edge_count - (states as u64 - 1),
            terminal_fingerprints: terminal_fps,
            peak_frontier: injector.peak_outstanding(),
            instance_fingerprint: None,
        })
    }
}

/// Serial visited-map value: the state is fully explored…
const DONE: u8 = 0;
/// …or still on the DFS path (a re-encounter is a back edge, i.e. a
/// livelock). One map serves as visited set *and* path set, so the
/// per-child cost is a single probe.
const ON_PATH: u8 = 1;

/// The [`Visitor`] of [`Explorer::run_serial`]: the path-marking
/// visited map and the report counters.
struct Serial<F> {
    max_states: usize,
    visited: HashMap<u64, u8, FpBuildHasher>,
    report: ExploreReport,
    terminal_ok: F,
}

impl<B, F> Visitor<B> for Serial<F>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
    F: FnMut(&Ring<B>) -> bool,
{
    type Frame = ();
    type Break = ExploreError<B>;

    fn exceeded(&mut self, limit: usize) -> ExploreError<B> {
        ExploreError::LimitExceeded(limit_exceeded(limit))
    }

    #[inline]
    fn admit(
        &mut self,
        child: Child<'_, B>,
        _: &mut (),
    ) -> ControlFlow<ExploreError<B>, Option<()>> {
        match self.visited.entry(child.fp) {
            std::collections::hash_map::Entry::Occupied(seen) => {
                if *seen.get() == ON_PATH {
                    return ControlFlow::Break(ExploreError::CycleDetected { depth: child.depth });
                }
                self.report.merge_edges += 1;
                return ControlFlow::Continue(None);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(ON_PATH);
            }
        }
        self.report.states += 1;
        if self.report.states > self.max_states {
            return ControlFlow::Break(self.exceeded(self.max_states));
        }
        if child.ring.enabled_activations().is_empty() {
            self.report.terminals += 1;
            self.report.terminal_fingerprints.push(child.fp);
            if !(self.terminal_ok)(child.ring) {
                return ControlFlow::Break(ExploreError::PredicateViolated {
                    ring: Box::new(child.ring.clone()),
                    depth: child.depth,
                });
            }
            self.visited.insert(child.fp, DONE);
            return ControlFlow::Continue(None);
        }
        self.report.peak_frontier = self.report.peak_frontier.max(child.depth + 1);
        ControlFlow::Continue(Some(()))
    }

    fn leave(&mut self, fp: u64, _: (), _: Option<&mut ()>) {
        self.visited.insert(fp, DONE);
    }
}

/// One unit of stealable work: a subtree root, delta-encoded against an
/// `Arc`-shared parent snapshot. `act == None` only for the global root
/// task (the root is packed directly and already counted); `act ==
/// Some(a)` denotes the *child* of `parent` under `a` — the stealer
/// restores the parent and walks from it through `a` alone, so the
/// child's bookkeeping (edge accounting, visited insert, terminal check)
/// is the walk's, as for any other child.
struct StealTask<B: Behavior> {
    parent: Arc<PackedState<B>>,
    /// Fingerprint of `parent` (the recorded edge's source).
    parent_fp: u64,
    act: Option<Activation>,
    /// Schedule depth of `parent`.
    depth: usize,
}

/// The shared work queue of the stealing engine — the "injector" of
/// work-stealing terminology, `std`-only (`Mutex` + `Condvar`).
///
/// Global termination detection is built into the accounting: a task is
/// *outstanding* from push until its executor calls
/// [`complete`](Injector::complete), and the sweep is over exactly when
/// no task is outstanding — an executing worker can still donate, so an
/// empty queue alone proves nothing. Because every pop precedes its
/// `complete`, outstanding-count zero with an empty queue is a stable
/// property; waiting workers are woken to observe it and exit.
struct Injector<B: Behavior> {
    state: Mutex<InjectorState<B>>,
    ready: Condvar,
    /// Racy mirror of the queue length, so the donation heuristic in the
    /// workers' hot loop is one relaxed load, not a lock acquisition.
    approx_len: AtomicUsize,
    /// Early-stop flag (limit hit or predicate violated): workers poll it
    /// once per DFS iteration and abandon their subtrees.
    stop: AtomicBool,
    /// Queue-pressure threshold under which workers donate: 0 for a
    /// single worker (no one to steal), `2 × threads` otherwise.
    low_water: usize,
}

struct InjectorState<B: Behavior> {
    queue: VecDeque<StealTask<B>>,
    /// Tasks popped but not yet completed.
    executing: usize,
    /// Peak of `queue.len() + executing` — the engine's live-snapshot
    /// working set, reported as [`ExploreReport::peak_frontier`].
    peak: usize,
}

impl<B: Behavior> Injector<B> {
    fn new(threads: usize) -> Self {
        Injector {
            state: Mutex::new(InjectorState {
                queue: VecDeque::new(),
                executing: 0,
                peak: 0,
            }),
            ready: Condvar::new(),
            approx_len: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            low_water: if threads > 1 { threads * 2 } else { 0 },
        }
    }

    /// Whether workers should donate part of their untried activations.
    fn hungry(&self) -> bool {
        self.approx_len.load(Ordering::Relaxed) < self.low_water
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Sets the early-stop flag and wakes every parked worker.
    fn halt(&self) {
        self.stop.store(true, Ordering::Relaxed);
        drop(self.state.lock().expect("steal queue poisoned"));
        self.ready.notify_all();
    }

    fn push_batch(&self, tasks: impl Iterator<Item = StealTask<B>>) {
        let mut state = self.state.lock().expect("steal queue poisoned");
        state.queue.extend(tasks);
        state.peak = state.peak.max(state.queue.len() + state.executing);
        self.approx_len.store(state.queue.len(), Ordering::Relaxed);
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks until a task is available, the sweep is complete, or the
    /// engine is halted; `None` means "go home" in the latter two cases.
    fn acquire(&self) -> Option<StealTask<B>> {
        let mut state = self.state.lock().expect("steal queue poisoned");
        loop {
            if self.stopped() {
                return None;
            }
            if let Some(task) = state.queue.pop_front() {
                state.executing += 1;
                self.approx_len.store(state.queue.len(), Ordering::Relaxed);
                return Some(task);
            }
            if state.executing == 0 {
                // Complete: nothing queued, nothing executing. Wake the
                // other waiters so they observe the same and exit.
                self.ready.notify_all();
                return None;
            }
            state = self.ready.wait(state).expect("steal queue poisoned");
        }
    }

    /// Marks the most recently acquired task finished; wakes waiters if
    /// this completed the sweep.
    fn complete(&self) {
        let mut state = self.state.lock().expect("steal queue poisoned");
        state.executing -= 1;
        if state.executing == 0 && state.queue.is_empty() {
            drop(state);
            self.ready.notify_all();
        }
    }

    fn peak_outstanding(&self) -> usize {
        self.state.lock().expect("steal queue poisoned").peak
    }
}

/// Shared read-only context of one work-stealing sweep — everything a
/// worker needs besides its own mutable scratch state.
struct StealCtx<'a, B: Behavior, F> {
    explorer: &'a Explorer,
    injector: &'a Injector<B>,
    visited: &'a ShardedVisited,
    state_count: &'a AtomicUsize,
    /// First limit error wins (race-free: set under this lock before the
    /// halt, read once after the join).
    limit: &'a Mutex<Option<SimError>>,
    terminal_ok: &'a F,
    threads: usize,
}

/// The [`Visitor`] of one steal worker, and its partial results over the
/// whole sweep: the sharded visited map and the edge log, with donation
/// and the halt check before each child. Each frame memoises the packed
/// snapshot its untried activations are donated against. Cycles are not
/// checked on the path; they are certified globally after the sweep (see
/// `find_cycle`).
struct Stealer<'c, 'a, B: Behavior, F> {
    ctx: &'c StealCtx<'a, B, F>,
    /// Newly discovered terminal fingerprints.
    terminals: Vec<u64>,
    /// Recorded quotient edges (when termination certification is on).
    edges: Vec<(u64, u64)>,
    /// All transitions generated (tree + merge edges).
    edge_count: u64,
    /// Deepest schedule depth attempted.
    max_depth: usize,
    /// Smallest-fingerprint predicate violation this worker found, with
    /// its depth — the cross-worker minimum makes the error choice
    /// deterministic regardless of interleaving.
    violation: Option<(u64, usize, Box<Ring<B>>)>,
}

impl<B, F> Visitor<B> for Stealer<'_, '_, B, F>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
    F: Fn(&Ring<B>) -> bool,
{
    type Frame = Option<Arc<PackedState<B>>>;
    type Break = ();

    /// Abandons the task once the sweep halts (the next task restores the
    /// scratch ring wholesale, so no unwinding is needed). Otherwise, if
    /// the queue is running dry and the state has at least two untried
    /// activations, packs the state once (memoised) and hands off half of
    /// the untried tail as delta-encoded children. Only-child chains
    /// never donate, so the pack cost is only paid where there is real
    /// branching to share.
    fn before_child(
        &mut self,
        ring: &Ring<B>,
        fp: u64,
        depth: usize,
        packed: &mut Self::Frame,
        untried: &[Activation],
    ) -> ControlFlow<(), usize> {
        let injector = self.ctx.injector;
        if injector.stopped() {
            return ControlFlow::Break(());
        }
        let remaining = untried.len();
        if self.ctx.threads > 1 && remaining >= 2 && injector.hungry() {
            let parent = packed
                .get_or_insert_with(|| Arc::new(PackedState::pack(ring)))
                .clone();
            let handed = remaining / 2;
            injector.push_batch(untried[remaining - handed..].iter().map(|&act| StealTask {
                parent: parent.clone(),
                parent_fp: fp,
                act: Some(act),
                depth,
            }));
            return ControlFlow::Continue(handed);
        }
        ControlFlow::Continue(0)
    }

    /// Records the limit error (first writer wins) and halts the sweep.
    fn exceeded(&mut self, limit: usize) {
        let mut slot = self.ctx.limit.lock().expect("explorer limit slot poisoned");
        slot.get_or_insert(limit_exceeded(limit));
        drop(slot);
        self.ctx.injector.halt();
    }

    #[inline]
    fn admit(
        &mut self,
        child: Child<'_, B>,
        _: &mut Self::Frame,
    ) -> ControlFlow<(), Option<Self::Frame>> {
        let ctx = self.ctx;
        self.edge_count += 1;
        if ctx.explorer.certify_termination {
            self.edges.push((child.parent_fp, child.fp));
        }
        if !ctx.visited.insert(child.fp, child.depth as u32) {
            // Merge edge: someone else owns this state.
            return ControlFlow::Continue(None);
        }
        let count = ctx.state_count.fetch_add(1, Ordering::Relaxed) + 1;
        if count > ctx.explorer.limits.max_states {
            self.exceeded(ctx.explorer.limits.max_states);
            return ControlFlow::Break(());
        }
        if child.ring.enabled_activations().is_empty() {
            self.terminals.push(child.fp);
            if !(ctx.terminal_ok)(child.ring) {
                // Clone only on violation capture. The clone's
                // configuration is exact; its metrics/phases are scratch
                // bookkeeping, not the path's (see
                // [`ExploreError::PredicateViolated`]).
                let ring = Box::new(child.ring.clone());
                match &self.violation {
                    Some((best, _, _)) if *best <= child.fp => {}
                    _ => self.violation = Some((child.fp, child.depth, ring)),
                }
                ctx.injector.halt();
                return ControlFlow::Break(());
            }
            return ControlFlow::Continue(None);
        }
        ControlFlow::Continue(Some(None))
    }
}

/// Worker entry point: drain the injector until the sweep completes or
/// halts. Each task restores its parent snapshot into the worker's
/// long-lived walk (scratch ring, fingerprint cache, arena and frame
/// stack) and walks the task's subtree, donating untried sibling
/// activations whenever the injector runs low.
fn steal_worker_loop<'c, 'a, B, F>(
    ring: &Ring<B>,
    ctx: &'c StealCtx<'a, B, F>,
) -> Stealer<'c, 'a, B, F>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
    F: Fn(&Ring<B>) -> bool,
{
    let mut walk = Walk::new(ring, ctx.explorer.symmetry, ctx.explorer.limits.max_depth);
    let mut stealer = Stealer {
        ctx,
        terminals: Vec::new(),
        edges: Vec::new(),
        edge_count: 0,
        max_depth: 0,
        violation: None,
    };
    while let Some(task) = ctx.injector.acquire() {
        task.parent.restore_into(&mut walk.ring);
        walk.cache.reset(&walk.ring);
        // A halted walk just ends the task; the sweep reads the halt.
        let _ = walk.run(&mut stealer, task.parent_fp, task.depth, None, task.act);
        ctx.injector.complete();
    }
    stealer.max_depth = walk.max_depth_seen;
    stealer
}

/// The striped concurrent visited map of the work-stealing engine:
/// fingerprint → first-seen schedule depth, hash-partitioned into
/// [`VISITED_SHARDS`] mutex-guarded shards so workers contend only when
/// their fingerprints collide modulo the shard count. The per-shard
/// insert is the atomic decision point that admits each fingerprint
/// exactly once — the root of the engine's determinism argument.
struct ShardedVisited {
    shards: Vec<Mutex<HashMap<u64, u32, FpBuildHasher>>>,
}

impl ShardedVisited {
    fn new() -> Self {
        ShardedVisited {
            shards: (0..VISITED_SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    /// Inserts `fp` first seen at `depth`; `false` if already present.
    fn insert(&self, fp: u64, depth: u32) -> bool {
        let shard = (fp % VISITED_SHARDS as u64) as usize;
        let mut map = self.shards[shard].lock().expect("visited shard poisoned");
        match map.entry(fp) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(depth);
                true
            }
        }
    }

    /// First-seen depth of a fingerprint, if visited.
    fn layer_of(&self, fp: u64) -> Option<u32> {
        let shard = (fp % VISITED_SHARDS as u64) as usize;
        self.shards[shard]
            .lock()
            .expect("visited shard poisoned")
            .get(&fp)
            .copied()
    }

    /// All visited fingerprints (drains nothing; snapshot copy).
    fn fingerprints(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(
                shard
                    .lock()
                    .expect("visited shard poisoned")
                    .keys()
                    .copied(),
            );
        }
        out
    }
}

/// Kahn elimination over the recorded quotient edges: returns the
/// earliest first-seen depth among the residual states (on a cycle or
/// downstream of one — see [`ExploreError::CycleDetected`]), or `None`
/// when the graph is acyclic (termination certified).
///
/// Sound and complete on the quotient graph, which is acyclic iff the
/// concrete configuration graph is (see [`crate::canonical`]).
fn find_cycle(edges: &mut [(u64, u64)], visited: &ShardedVisited) -> Option<usize> {
    edges.sort_unstable();
    let mut indegree: HashMap<u64, u32, FpBuildHasher> = HashMap::default();
    for &(_, to) in edges.iter() {
        *indegree.entry(to).or_insert(0) += 1;
    }
    let all = visited.fingerprints();
    let mut queue: Vec<u64> = all
        .iter()
        .copied()
        .filter(|fp| !indegree.contains_key(fp))
        .collect();
    let mut removed = queue.len();
    while let Some(u) = queue.pop() {
        let start = edges.partition_point(|&(from, _)| from < u);
        for &(_, v) in edges[start..].iter().take_while(|&&(from, _)| from == u) {
            let d = indegree.get_mut(&v).expect("edge target counted");
            *d -= 1;
            if *d == 0 {
                removed += 1;
                queue.push(v);
            }
        }
    }
    if removed == all.len() {
        return None;
    }
    // Residual states (in-degree never reached zero) lie on a cycle or
    // downstream of one; report the earliest first-seen depth among them.
    all.iter()
        .filter(|fp| indegree.get(fp).is_some_and(|d| *d > 0))
        .filter_map(|fp| visited.layer_of(*fp))
        .min()
        .map(|layer| layer as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Idle};
    use crate::agent::Observation;
    use crate::initial::InitialConfig;

    /// Walks `hops` hops, drops token at start, halts.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Walker {
        hops: usize,
        released: bool,
    }

    impl Behavior for Walker {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            let release = !std::mem::replace(&mut self.released, true);
            if self.hops > 0 {
                self.hops -= 1;
                Action::moving().with_token_release(release)
            } else {
                Action::halting().with_token_release(release)
            }
        }
        fn memory_bits(&self) -> usize {
            8
        }
    }

    #[test]
    fn explores_all_interleavings_of_independent_walkers() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 2,
            released: false,
        });
        let report = explore_all_schedules(&ring, ExploreLimits::default(), |r| {
            r.staying_positions() == Some(vec![2, 5])
        })
        .expect("exploration succeeds");
        // Two agents, three actions each, fully independent: states form a
        // 4x4 progress grid (0..=3 actions each), minus shared start.
        assert!(report.states >= 10, "states {}", report.states);
        assert_eq!(report.terminals, 1);
        assert_eq!(report.max_depth_seen, 6);
        assert_eq!(report.terminal_fingerprints.len(), 1);
        assert!(report.contains_terminal(report.terminal_fingerprints[0]));
        assert!(!report.contains_terminal(report.terminal_fingerprints[0] ^ 1));
    }

    #[test]
    fn rotation_quotient_collapses_symmetric_interleavings() {
        // Two identical walkers at antipodes of a 6-ring: the instance is
        // periodic with l = 2, so the quotient merges mirror-image
        // interleavings and strictly reduces the state count.
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 2,
            released: false,
        });
        let plain = Explorer::new()
            .symmetry(SymmetryMode::Off)
            .threads(1)
            .run_serial(&ring, |_| true)
            .expect("plain");
        let reduced = Explorer::new()
            .symmetry(SymmetryMode::Rotation)
            .threads(1)
            .run_serial(&ring, |_| true)
            .expect("reduced");
        assert!(
            reduced.states < plain.states,
            "quotient must shrink the space: {} vs {}",
            reduced.states,
            plain.states
        );
        assert_eq!(reduced.terminals, 1);
        assert_eq!(plain.terminals, 1);
    }

    #[test]
    fn parallel_engine_matches_serial_reference() {
        let init = InitialConfig::new(8, vec![0, 2, 5]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 3,
            released: false,
        });
        for symmetry in [
            SymmetryMode::Off,
            SymmetryMode::Rotation,
            SymmetryMode::Dihedral,
        ] {
            let serial = Explorer::new()
                .symmetry(symmetry)
                .run_serial(&ring, |_| true)
                .expect("serial");
            let parallel = Explorer::new()
                .symmetry(symmetry)
                .threads(4)
                .run(&ring, |_| true)
                .expect("parallel");
            assert_eq!(serial.states, parallel.states, "{symmetry:?}");
            assert_eq!(serial.terminals, parallel.terminals, "{symmetry:?}");
            assert_eq!(
                serial.terminal_fingerprints, parallel.terminal_fingerprints,
                "{symmetry:?}"
            );
            assert_eq!(serial.merge_edges, parallel.merge_edges, "{symmetry:?}");
        }
    }

    #[test]
    fn single_worker_stealing_matches_serial_exactly() {
        // `threads(1)` runs the work-stealing engine with one worker —
        // no donation, one deterministic DFS — so even the
        // engine-specific diagnostic `max_depth_seen` must equal the
        // serial engine's (the expansion order is identical).
        let init = InitialConfig::new(8, vec![0, 2, 5]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 3,
            released: false,
        });
        for symmetry in [
            SymmetryMode::Off,
            SymmetryMode::Rotation,
            SymmetryMode::Dihedral,
        ] {
            let serial = Explorer::new()
                .symmetry(symmetry)
                .run_serial(&ring, |_| true)
                .expect("serial");
            let stealing = Explorer::new()
                .symmetry(symmetry)
                .threads(1)
                .run(&ring, |_| true)
                .expect("stealing-1");
            assert_eq!(serial.states, stealing.states, "{symmetry:?}");
            assert_eq!(serial.terminals, stealing.terminals, "{symmetry:?}");
            assert_eq!(
                serial.terminal_fingerprints, stealing.terminal_fingerprints,
                "{symmetry:?}"
            );
            assert_eq!(serial.merge_edges, stealing.merge_edges, "{symmetry:?}");
            assert_eq!(
                serial.max_depth_seen, stealing.max_depth_seen,
                "{symmetry:?}"
            );
        }
    }

    #[test]
    fn stealing_report_is_independent_of_worker_count() {
        // The deterministic quadruple must not move across widths or
        // repeated runs — donation points and steal order vary, the
        // quotient graph does not.
        let init = InitialConfig::new(8, vec![0, 2, 5]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 3,
            released: false,
        });
        let baseline = Explorer::new().threads(1).run(&ring, |_| true).expect("1");
        for threads in [2usize, 3, 4, 8] {
            for rep in 0..3 {
                let report = Explorer::new()
                    .threads(threads)
                    .run(&ring, |_| true)
                    .expect("stealing");
                assert_eq!(baseline.states, report.states, "t={threads} rep={rep}");
                assert_eq!(
                    baseline.terminal_fingerprints, report.terminal_fingerprints,
                    "t={threads} rep={rep}"
                );
                assert_eq!(
                    baseline.merge_edges, report.merge_edges,
                    "t={threads} rep={rep}"
                );
            }
        }
    }

    #[test]
    fn detects_predicate_violation() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 1,
            released: false,
        });
        let err = explore_all_schedules(&ring, ExploreLimits::default(), |_| false).unwrap_err();
        match err {
            ExploreError::PredicateViolated { depth, .. } => assert_eq!(depth, 4),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn parallel_engine_reports_predicate_violation() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 1,
            released: false,
        });
        let err = Explorer::new()
            .threads(3)
            .run(&ring, |_| false)
            .unwrap_err();
        assert!(
            matches!(err, ExploreError::PredicateViolated { .. }),
            "{err}"
        );
        assert_eq!(err.kind(), ExploreErrorKind::PredicateViolated { depth: 4 });
    }

    /// An agent that ping-pongs between Ready-stay states forever.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Spinner;

    impl Behavior for Spinner {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            Action::staying(Idle::Ready)
        }
        fn memory_bits(&self) -> usize {
            1
        }
    }

    #[test]
    fn detects_livelock_as_cycle() {
        let init = InitialConfig::new(3, vec![0]).expect("valid");
        let ring = Ring::new(&init, |_| Spinner);
        let err = explore_all_schedules(&ring, ExploreLimits::default(), |_| true).unwrap_err();
        assert!(matches!(err, ExploreError::CycleDetected { .. }), "{err}");
    }

    #[test]
    fn parallel_engine_certifies_termination_or_finds_the_cycle() {
        let init = InitialConfig::new(3, vec![0]).expect("valid");
        let ring = Ring::new(&init, |_| Spinner);
        let err = Explorer::new().threads(2).run(&ring, |_| true).unwrap_err();
        assert!(matches!(err, ExploreError::CycleDetected { .. }), "{err}");
        // With certification off the livelock is (documented to be)
        // invisible to the parallel engine: the sweep simply converges.
        let report = Explorer::new()
            .threads(2)
            .certify_termination(false)
            .run(&ring, |_| true)
            .expect("safety-only sweep converges");
        assert_eq!(report.terminals, 0);
    }

    /// Moves forever: an unbounded acyclic walk on the ring… except the
    /// ring is finite, so configurations must eventually repeat through a
    /// multi-state cycle (never a self-loop) — exercising the Kahn
    /// elimination beyond trivial self-edges.
    #[derive(Clone, Hash, PartialEq, Eq)]
    struct Orbiter;

    impl Behavior for Orbiter {
        type Message = ();
        fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
            Action::moving()
        }
        fn memory_bits(&self) -> usize {
            1
        }
    }

    #[test]
    fn multi_state_cycles_are_found_by_both_engines() {
        let init = InitialConfig::new(4, vec![0, 2]).expect("valid");
        let ring = Ring::new(&init, |_| Orbiter);
        let serial = explore_all_schedules(&ring, ExploreLimits::default(), |_| true).unwrap_err();
        assert!(matches!(serial, ExploreError::CycleDetected { .. }));
        let parallel = Explorer::new().threads(2).run(&ring, |_| true).unwrap_err();
        assert!(matches!(parallel, ExploreError::CycleDetected { .. }));
    }

    #[test]
    fn state_limit_is_enforced() {
        let init = InitialConfig::new(8, vec![0, 2, 4, 6]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 7,
            released: false,
        });
        for threads in [1, 4] {
            let err = Explorer::new()
                .limits(ExploreLimits::new(5, 10_000))
                .symmetry(SymmetryMode::Off)
                .threads(threads)
                .run(&ring, |_| true)
                .unwrap_err();
            assert!(matches!(err, ExploreError::LimitExceeded(_)), "{threads}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
        let ring = Ring::new(&init, |_| Walker {
            hops: 4,
            released: false,
        });
        for threads in [1, 4] {
            let err = Explorer::new()
                .limits(ExploreLimits::new(1_000_000, 3))
                .threads(threads)
                .run(&ring, |_| true)
                .unwrap_err();
            assert!(matches!(err, ExploreError::LimitExceeded(_)), "{threads}");
        }
    }

    #[test]
    fn for_instance_limits_saturate_at_extreme_bounds() {
        // Regression: the run-side limits overflowed before PR 2; the
        // explore side must saturate the same way rather than panic in
        // debug or wrap to a tiny budget in release.
        let limits = ExploreLimits::for_instance(usize::MAX, usize::MAX);
        assert_eq!(limits.max_states, usize::MAX);
        assert_eq!(limits.max_depth, usize::MAX);
        let limits = ExploreLimits::for_instance(usize::MAX / 2, 3);
        assert!(limits.max_depth >= usize::MAX / 2);
        // Sane scaling in the normal regime.
        let limits = ExploreLimits::for_instance(12, 4);
        assert_eq!(limits.max_states, 8_000_000);
        assert_eq!(limits.max_depth, 400 * 4 * 12 + 10_000);
        // k = 0 is degenerate but must not zero the state budget.
        assert_eq!(ExploreLimits::for_instance(5, 0).max_states, 2_000_000);
    }
}
