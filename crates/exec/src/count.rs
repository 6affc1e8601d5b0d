//! The plan-driven backtracking homomorphism counter.
//!
//! The kernel binds query variables one at a time in a connectivity-aware
//! order. Which incident edges constrain a variable is fully determined by
//! that order, so a [`CountPlan`] precomputes, once per `(query, order)`,
//! a per-depth *extension plan*: the edges into the already-bound prefix,
//! the self-loop checks, and — for variables with no bound neighbour — how
//! to seed candidates. Recursion then performs **zero allocations**: the
//! candidate set of each variable is the k-way galloping intersection
//! (`crate::intersect`) of the sorted CSR neighbour slices induced by
//! its bound neighbours, written into a reusable per-depth buffer sized
//! at plan time from the graph's cached maximum degrees, or the probe of
//! a cached bitset where the plan's degree statistics call for one.
//!
//! Unconstrained root variables iterate the smallest label-restricted
//! endpoint list (`graph.sources(l)` / `targets(l)`) instead of the whole
//! vertex domain; truly isolated variables still scan the domain.

use ceg_graph::{LabelId, LabeledGraph, VertexId};
use ceg_query::{QueryGraph, VarId};

use crate::constraints::{VarConstraint, VarConstraints};
use crate::intersect::{
    gallop_count, intersect_into, intersect_k_into, refine_in_place, VertexBitset,
};
use crate::order::variable_order;
use crate::tree_count::{count_tree, factorize, Factorization};

/// Profiling counters from one counting run. Plain `u64` fields bumped
/// inline by the kernel — no allocation, no atomics, no globals — so the
/// cost over an unprofiled run is a handful of register increments per
/// candidate, and the `kernel` scenario of `tests/cost/mod.rs` still
/// holds. A run of the tree DP ([`crate::tree_count`]) reports
/// `candidates` and `budget_consumed` only; the rest are kernel concepts
/// and stay 0.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// The work done, in the budget's unit: candidate vertices tried by
    /// the kernel, relation rows swept by the tree DP (each one charged
    /// against the budget).
    pub candidates: u64,
    /// Pairwise intersection steps, each a gallop of the shorter list
    /// through the longer one.
    pub gallop_intersections: u64,
    /// Intersection steps that ran through a per-depth candidate bitset
    /// (a word-wise AND against a cached bitset of the stable list).
    pub bitset_intersections: u64,
    /// Independent-suffix products taken instead of enumerating bindings.
    pub suffix_shortcuts: u64,
    /// Suffix subtrees answered from the per-depth memo table instead of
    /// being re-explored (see `SuffixMemo`).
    pub memo_hits: u64,
    /// Total expansions charged against the budget (candidates plus
    /// suffix-product bulk charges).
    pub budget_consumed: u64,
    /// Deepest binding depth reached (number of bound variables).
    pub deepest_level: u64,
}

impl KernelStats {
    /// Fold `other` into `self`: counters add, `deepest_level` takes the
    /// maximum. Used to aggregate per-pattern runs into a fill total.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.candidates += other.candidates;
        self.gallop_intersections += other.gallop_intersections;
        self.bitset_intersections += other.bitset_intersections;
        self.suffix_shortcuts += other.suffix_shortcuts;
        self.memo_hits += other.memo_hits;
        self.budget_consumed = self.budget_consumed.saturating_add(other.budget_consumed);
        self.deepest_level = self.deepest_level.max(other.deepest_level);
    }

    /// Every field with the name it is reported under (the counter names
    /// of an `EXPLAIN_ESTIMATE` breakdown; the service's `METRICS` totals
    /// are `<name>_total`), in declaration order: the six sums, then
    /// the maximum `deepest_level`.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("kernel_candidates", self.candidates),
            ("kernel_intersect_gallop", self.gallop_intersections),
            ("kernel_intersect_bitset", self.bitset_intersections),
            ("kernel_suffix_shortcuts", self.suffix_shortcuts),
            ("kernel_memo_hits", self.memo_hits),
            ("kernel_budget_consumed", self.budget_consumed),
            ("kernel_deepest_level", self.deepest_level),
        ]
    }
}

/// Work budget for a counting run: the maximum number of candidate
/// extensions the matcher may try (of relation rows the tree DP may
/// sweep), plus an optional wall-clock deadline.
/// Exceeding either aborts the count (the paper's baselines also time out
/// on hard queries, Section 6.4).
#[derive(Debug, Clone, Copy)]
pub struct CountBudget {
    /// `u64::MAX` sets no limit: such a run stops only at its deadline,
    /// or when the count passes `u64::MAX`.
    pub max_expansions: u64,
    /// Abandon the count once this instant passes. Checked every
    /// [`DEADLINE_CHECK_INTERVAL`] charged expansions, so a deadline adds
    /// no per-candidate clock read to the hot loop.
    pub deadline: Option<std::time::Instant>,
}

impl CountBudget {
    pub const UNLIMITED: CountBudget = CountBudget {
        max_expansions: u64::MAX,
        deadline: None,
    };

    pub fn new(max_expansions: u64) -> Self {
        CountBudget {
            max_expansions,
            deadline: None,
        }
    }

    /// A purely time-bounded budget (unlimited expansions).
    pub fn until(deadline: std::time::Instant) -> Self {
        CountBudget {
            max_expansions: u64::MAX,
            deadline: Some(deadline),
        }
    }
}

/// Charged expansions between wall-clock reads when a deadline is set:
/// coarse enough that `Instant::now` stays off the per-candidate path,
/// fine enough that a deadline overrun is bounded by a few thousand
/// cheap candidate checks.
pub const DEADLINE_CHECK_INTERVAL: u32 = 4096;

/// The mutable budget accounting threaded through the recursion: the
/// remaining expansion allowance plus the (optional) deadline and its
/// check countdown.
pub(crate) struct BudgetState {
    /// `None` when the budget sets no limit. Charges track the count, so
    /// a `u64::MAX` allowance would run out just before an overflowing
    /// count is detected, and report the wrong cause.
    remaining: Option<u64>,
    deadline: Option<std::time::Instant>,
    until_check: u32,
    /// Set when the kernel aborted because the count passes `u64::MAX`.
    overflowed: bool,
    pub(crate) stats: KernelStats,
}

impl BudgetState {
    pub(crate) fn new(budget: CountBudget) -> Self {
        BudgetState {
            remaining: (budget.max_expansions != u64::MAX).then_some(budget.max_expansions),
            deadline: budget.deadline,
            until_check: DEADLINE_CHECK_INTERVAL,
            overflowed: false,
            stats: KernelStats::default(),
        }
    }

    /// Abort the run because the count passes `u64::MAX`; `false`, like
    /// a failed charge.
    fn overflow(&mut self) -> bool {
        self.overflowed = true;
        false
    }

    /// True when the deadline (if any) has already passed — callers use
    /// this to skip plan execution entirely.
    pub(crate) fn expired_at_entry(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Charge a whole candidate list up front: one budget touch and one
    /// deadline countdown (weighted by the list length, so the overrun
    /// bound stays [`DEADLINE_CHECK_INTERVAL`] candidates) per list.
    /// `false` aborts the run.
    #[inline]
    pub(crate) fn charge_list(&mut self, n: u64) -> bool {
        if let Some(left) = &mut self.remaining {
            if *left < n {
                // The run aborts here: report the allowance as spent so an
                // aborted run still accounts for the budget that stopped it.
                self.stats.budget_consumed = self.stats.budget_consumed.saturating_add(*left);
                *left = 0;
                return false;
            }
            *left -= n;
        }
        self.stats.candidates += n;
        self.stats.budget_consumed = self.stats.budget_consumed.saturating_add(n);
        let Some(deadline) = self.deadline else {
            return true;
        };
        let n = n.min(u32::MAX as u64) as u32;
        match self.until_check.checked_sub(n) {
            Some(left) if left > 0 => {
                self.until_check = left;
                return true;
            }
            _ => {}
        }
        self.until_check = DEADLINE_CHECK_INTERVAL;
        if std::time::Instant::now() >= deadline {
            // Poison the allowance so every later charge fails fast.
            self.remaining = Some(0);
            return false;
        }
        true
    }

    /// Charge `n` expansions at once (independent-suffix products and
    /// weighted-leaf bulk results); `false` aborts the run. Callers that
    /// take the suffix shortcut bump `stats.suffix_shortcuts` themselves
    /// — a weighted leaf charges in bulk without being a shortcut.
    #[inline]
    fn charge_many(&mut self, n: u64) -> bool {
        if let Some(left) = &mut self.remaining {
            if *left < n {
                return false;
            }
            *left -= n;
        }
        self.stats.budget_consumed = self.stats.budget_consumed.saturating_add(n);
        self.check_deadline()
    }

    #[inline]
    fn check_deadline(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return true;
        };
        self.until_check -= 1;
        if self.until_check > 0 {
            return true;
        }
        self.until_check = DEADLINE_CHECK_INTERVAL;
        if std::time::Instant::now() >= deadline {
            // Poison the allowance so every later charge fails fast.
            self.remaining = Some(0);
            return false;
        }
        true
    }
}

/// Why [`count_budgeted`] gave no count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountStop {
    /// The [`CountBudget`] ran out: its expansions or its deadline.
    Budget,
    /// The count passes `u64::MAX`.
    Overflow,
}

impl std::fmt::Display for CountStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CountStop::Budget => "the count budget ran out",
            CountStop::Overflow => "the count overflows u64",
        })
    }
}

/// Count the homomorphisms of `query` in `graph` (join semantics: distinct
/// variables may map to the same vertex). The service counts on the
/// committed [`LabeledGraph`] of one pinned epoch.
///
/// # Panics
///
/// If the count passes `u64::MAX`.
pub fn count(graph: &LabeledGraph, query: &QueryGraph) -> u64 {
    let cons = VarConstraints::none(query.num_vars());
    match count_budgeted(graph, query, &cons, CountBudget::UNLIMITED).0 {
        Ok(n) => n,
        Err(stop) => panic!("cannot count {query}: {stop}"),
    }
}

/// Count homomorphisms subject to per-variable constraints and a work
/// budget: [`CountStop::Budget`] when the budget is exhausted,
/// [`CountStop::Overflow`] when the count passes `u64::MAX`, with the
/// profiling counters of the run either way.
///
/// Which code counts is read off the input: a connected, acyclic,
/// unconstrained query goes to the sparse tree DP
/// ([`crate::tree_count`]), whose budget unit is a relation row swept;
/// everything else — cyclic queries, constrained bound-sketch counts, a
/// tree whose weights overflow `u64` — to the backtracking kernel
/// ([`CountPlan`]), whose unit is a candidate binding.
pub fn count_budgeted(
    graph: &LabeledGraph,
    query: &QueryGraph,
    cons: &VarConstraints,
    budget: CountBudget,
) -> (Result<u64, CountStop>, KernelStats) {
    if cons.is_trivial() {
        if let Some(counted) = count_tree(graph, query, budget) {
            return counted;
        }
    }
    CountPlan::new(graph, query, cons).count(budget)
}

/// Upper bound on query edges (mirrors [`QueryGraph`]'s 32-edge cap); the
/// per-depth neighbour-slice gather uses a stack array of this size.
const MAX_QUERY_EDGES: usize = 32;

/// An edge from the current variable into the already-bound prefix.
struct PlannedEdge {
    /// The bound endpoint.
    other: VarId,
    label: LabelId,
    /// True when the query edge runs `other -label-> var`, i.e. candidates
    /// come from the out-neighbours of the bound value.
    forward: bool,
}

/// How to seed candidates for a variable with no bound neighbour.
enum RootGen {
    /// Not a root depth (`edges` is non-empty).
    Bound,
    /// The variable is pinned by a [`VarConstraint::Fixed`] constraint.
    Fixed(VertexId),
    /// Precomputed smallest label-restricted endpoint list (sources or
    /// targets of an incident edge's relation).
    List(Vec<VertexId>),
    /// Isolated variable (no incident non-loop edge): scan the domain.
    Scan,
}

/// The extension plan of one depth of the binding order.
struct DepthPlan {
    var: VarId,
    /// Edges into the bound prefix; the candidate set is the intersection
    /// of the neighbour lists they induce.
    edges: Vec<PlannedEdge>,
    /// Labels of self-loop edges at `var` (checked per candidate).
    self_loops: Vec<LabelId>,
    root: RootGen,
    /// Pendant-tree weight of each binding (`None` ⇒ 1 everywhere); set
    /// where the plan factorized a pendant tree off this variable.
    weight: Option<Box<[u64]>>,
    /// For a weighted root depth, `Σ weight` over its (plan-time fixed)
    /// candidate list — what the suffix product uses instead of the list
    /// length. `None` when unweighted, not a List/Scan root, or the sum
    /// overflowed (the suffix then falls back to enumeration).
    root_weight_sum: Option<u64>,
}

/// Minimum cached max-degree of a stable edge's relation before the plan
/// enables the bitset path for a depth: below this the candidate sets are
/// too sparse for word-wise probing to beat galloping, and the O(len)
/// bitset rebuilds dominate.
const BITSET_MIN_DEGREE: usize = 32;

/// Cached-set to probe length ratio from which a bitset depth gallops the
/// probe through the stable list instead of walking it against the
/// bitset: an O(|probe| · log) gallop then beats an O(|probe|) word walk
/// over words far apart.
const GALLOP_RATIO: usize = 16;

/// A per-depth cached bitset over the neighbour list of the depth's
/// *stable* edge — the planned edge whose endpoint binds earliest, so its
/// binding survives many iterations of the deeper loops. The stamp makes
/// rebuilds lazy: the bitset is reset only when that binding actually
/// changed since it was last built.
struct BitsetCache {
    /// Index into the depth's `edges` of the stable edge.
    edge_idx: usize,
    bits: VertexBitset,
    /// Binding of the stable edge's endpoint when `bits` was built.
    stamp: Option<VertexId>,
}

/// Domain cap for the per-depth suffix memo: beyond this many data
/// vertices the `O(|V|)` table allocation and zeroing at plan time could
/// dwarf a budget-limited count, so memoization is disabled.
const MEMO_MAX_DOMAIN: usize = 1 << 22;

/// A per-depth memo over the *count of the remaining suffix*.
///
/// When every edge of `depths[d..]` that reaches outside the suffix
/// touches only the variable bound at depth `d-1` (the *key*) plus at
/// most one other, shallower variable (the *anchor*), the suffix count is
/// a pure function of those two bindings. Counting a cycle revisits the
/// same `(anchor, key)` pair once per distinct path between them, so the
/// kernel caches the count in a table indexed by the key binding, each
/// slot stamped with the anchor binding it was computed under — turning
/// cyclic backtracking into the dynamic program over distinct
/// `(anchor, key)` states. Slots survive anchor moves (only a slot
/// rewritten under a different anchor is lost), survive reuses of the
/// plan, and the tables are plan-time allocations, so the recursion
/// stays allocation-free.
struct SuffixMemo {
    /// The variable bound at the depth just above this suffix; its
    /// binding indexes the table.
    key_var: VarId,
    /// The single shallower variable the suffix also references, if any.
    /// `None` means the suffix count depends on the key binding alone
    /// (slots then use anchor stamp 0).
    anchor_var: Option<VarId>,
    /// One slot per key binding; see [`MemoSlot`].
    slots: Box<[MemoSlot]>,
}

/// One suffix-memo entry: anchor stamp and count packed together so the
/// hot lookup costs a single random access. `count` is the suffix count
/// (with suffix weights, prefix weight factored out) computed when the
/// memo's anchor variable was bound to `anchor` — valid iff `anchor`
/// equals the current anchor binding. `u32::MAX` is the never-written
/// sentinel (anchor bindings are in-domain, hence below `MEMO_MAX_DOMAIN`).
#[derive(Clone, Copy)]
struct MemoSlot {
    anchor: VertexId,
    count: u64,
}

/// A reusable, allocation-free counter for one `(graph, query, cons)`
/// triple. Building the plan allocates; [`CountPlan::count`] then runs
/// without touching the allocator, which the `kernel` scenario of
/// `tests/cost/mod.rs` asserts with a counting global allocator.
pub struct CountPlan<'a> {
    graph: &'a LabeledGraph,
    cons: VarConstraints,
    depths: Vec<DepthPlan>,
    /// `indep[d]` is true when every depth `e >= d` constrains only
    /// variables bound before depth `d` (and has no self-loop or
    /// constraint checks). The counting recursion then multiplies the
    /// suffix's candidate-set sizes instead of enumerating bindings —
    /// e.g. a star's leaves contribute a product of degrees in O(k).
    /// `indep.len() == depths.len() + 1`; the final entry is trivially
    /// true.
    indep: Vec<bool>,
    /// One candidate buffer per depth (left empty for depths that iterate
    /// a single neighbour slice or a precomputed root list directly).
    bufs: Vec<Vec<VertexId>>,
    /// Per-depth bitset caches, populated at plan time for the depths
    /// where the degree-stat crossover enables the bitset path.
    caches: Vec<Option<BitsetCache>>,
    /// Per-depth suffix-count memo tables ([`SuffixMemo`]), populated at
    /// plan time for the depths whose suffix depends on at most a key and
    /// one anchor variable.
    memos: Vec<Option<SuffixMemo>>,
    /// Current partial binding, indexed by variable id.
    binding: Vec<VertexId>,
}

impl<'a> CountPlan<'a> {
    /// Precompute the per-depth extension plans under the
    /// `variable_order` heuristic. Pendant trees are factorized off a
    /// cyclic core first ([`crate::tree_count`]), so acyclic
    /// sub-structures contribute closed-form weight products instead of
    /// being enumerated and the plan binds the core's variables only; a
    /// query nothing peels off is planned as given.
    pub fn new(graph: &'a LabeledGraph, query: &QueryGraph, cons: &VarConstraints) -> Self {
        let Factorization {
            core,
            cons,
            mut weights,
        } = factorize(graph, query, cons).unwrap_or_else(|| Factorization {
            core: query.clone(),
            cons: cons.clone(),
            weights: vec![None; query.num_vars() as usize],
        });
        let query = &core;
        let order = variable_order(graph, query);
        let num_vars = query.num_vars() as usize;
        let mut pos = vec![usize::MAX; num_vars];
        for (d, &v) in order.iter().enumerate() {
            pos[v as usize] = d;
        }

        let mut depths = Vec::with_capacity(order.len());
        let mut bufs = Vec::with_capacity(order.len());
        let mut caches = Vec::with_capacity(order.len());
        for (d, &v) in order.iter().enumerate() {
            let mut edges: Vec<PlannedEdge> = Vec::new();
            let mut self_loops: Vec<LabelId> = Vec::new();
            // Incident edges whose other endpoint binds later; for a root
            // depth these restrict the seed list: (label, v-is-source).
            let mut later: Vec<(LabelId, bool)> = Vec::new();
            for i in query.edges_at(v) {
                let e = query.edge(i);
                if e.src == e.dst {
                    self_loops.push(e.label);
                    continue;
                }
                let other = e.other(v);
                if pos[other as usize] < d {
                    edges.push(PlannedEdge {
                        other,
                        label: e.label,
                        forward: e.src == other,
                    });
                } else {
                    later.push((e.label, e.src == v));
                }
            }

            let root = if !edges.is_empty() {
                RootGen::Bound
            } else if let VarConstraint::Fixed(u) = cons.get(v) {
                RootGen::Fixed(u)
            } else if let Some(&(label, is_src)) = later.iter().min_by_key(|&&(l, s)| {
                if s {
                    graph.distinct_sources(l)
                } else {
                    graph.distinct_targets(l)
                }
            }) {
                // Any binding of v must have a neighbour under this edge,
                // so the relation's endpoint projection is a sound and
                // complete seed set — typically far smaller than the
                // domain.
                RootGen::List(if is_src {
                    graph.sources(label).collect()
                } else {
                    graph.targets(label).collect()
                })
            } else {
                RootGen::Scan
            };

            // The intersection result cannot exceed its smallest input
            // list, so the smallest max-degree bounds the buffer for all
            // bindings — reserved here so recursion never reallocates.
            let cap = if edges.len() >= 2 {
                edges
                    .iter()
                    .map(|pe| {
                        if pe.forward {
                            graph.max_out_degree(pe.label)
                        } else {
                            graph.max_in_degree(pe.label)
                        }
                    })
                    .min()
                    .unwrap_or(0)
            } else {
                0
            };
            bufs.push(Vec::with_capacity(cap));

            // Bitset eligibility: at least two constraining edges, a
            // stable edge bound at least two levels up (so the cached
            // bitset survives whole loops of the depth above), and a
            // stable relation dense enough (by cached max degree) that
            // word-wise probing beats galloping.
            let cache = if edges.len() >= 2 {
                let (stable_idx, stable_pos) = edges
                    .iter()
                    .enumerate()
                    .map(|(i, pe)| (i, pos[pe.other as usize]))
                    .min_by_key(|&(_, p)| p)
                    .expect("at least two edges");
                let pe = &edges[stable_idx];
                let stable_max_degree = if pe.forward {
                    graph.max_out_degree(pe.label)
                } else {
                    graph.max_in_degree(pe.label)
                };
                (stable_pos + 2 <= d && stable_max_degree >= BITSET_MIN_DEGREE).then(|| {
                    BitsetCache {
                        edge_idx: stable_idx,
                        bits: VertexBitset::with_domain(graph.num_vertices()),
                        stamp: None,
                    }
                })
            } else {
                None
            };
            caches.push(cache);

            let weight = weights[v as usize].take();
            let root_weight_sum = weight.as_ref().and_then(|w| match &root {
                RootGen::List(list) => list
                    .iter()
                    .try_fold(0u64, |a, &c| a.checked_add(w[c as usize])),
                RootGen::Scan => w.iter().try_fold(0u64, |a, &x| a.checked_add(x)),
                RootGen::Fixed(_) | RootGen::Bound => None,
            });
            depths.push(DepthPlan {
                var: v,
                edges,
                self_loops,
                root,
                weight,
                root_weight_sum,
            });
        }

        // Independent-suffix analysis: walking from the back, track the
        // latest binding position any suffix depth depends on and whether
        // every suffix depth is check-free (no self-loops, no constraint).
        let n = depths.len();
        let mut indep = vec![false; n + 1];
        indep[n] = true;
        let mut suffix_ok = true;
        let mut suffix_max_dep: isize = -1;
        for d in (0..n).rev() {
            let dp = &depths[d];
            suffix_ok = suffix_ok
                && dp.self_loops.is_empty()
                && matches!(cons.get(dp.var), VarConstraint::Any)
                && !matches!(dp.root, RootGen::Fixed(_));
            for pe in &dp.edges {
                suffix_max_dep = suffix_max_dep.max(pos[pe.other as usize] as isize);
            }
            indep[d] = suffix_ok && suffix_max_dep < d as isize;
        }

        // Suffix-memo eligibility: depth d's suffix memoizes when its
        // edges reach at most two already-bound variables — the key
        // (bound at depth d-1) and one anchor. Cycles revisit the same
        // (anchor, key) state once per path between them; the memo
        // collapses those revisits into table lookups.
        let mut memos: Vec<Option<SuffixMemo>> = (0..depths.len()).map(|_| None).collect();
        // Depths past the first independent suffix are answered by the
        // product shortcut without ever being entered, so a memo there is
        // pure allocation overhead (`indep` is monotone from the back:
        // the first true entry shortcuts everything deeper).
        let first_indep = (0..n).find(|&d| indep[d]).unwrap_or(n);
        if graph.num_vertices() <= MEMO_MAX_DOMAIN {
            for d in 1..depths.len().min(first_indep + 1) {
                let key = order[d - 1];
                let mut anchor: Option<VarId> = None;
                let mut eligible = true;
                for dp in &depths[d..] {
                    for pe in &dp.edges {
                        let o = pe.other;
                        if pos[o as usize] >= d || o == key {
                            continue; // internal to the suffix, or the key
                        }
                        match anchor {
                            None => anchor = Some(o),
                            Some(a) if a == o => {}
                            Some(_) => eligible = false,
                        }
                    }
                }
                if eligible {
                    let empty = MemoSlot {
                        anchor: VertexId::MAX,
                        count: 0,
                    };
                    memos[d] = Some(SuffixMemo {
                        key_var: key,
                        anchor_var: anchor,
                        slots: vec![empty; graph.num_vertices()].into_boxed_slice(),
                    });
                }
            }
        }

        CountPlan {
            graph,
            cons,
            depths,
            indep,
            bufs,
            caches,
            memos,
            binding: vec![0; num_vars],
        }
    }

    /// Count under a work budget, as [`count_budgeted`] does, with the
    /// run's [`KernelStats`] either way (an aborted run reports the work
    /// done before it stopped).
    ///
    /// The bindings of an independent suffix are never materialized:
    /// once the remaining variables only reference the bound prefix,
    /// their contribution is the product of candidate-set sizes (charged
    /// against the budget in one step).
    pub fn count(&mut self, budget: CountBudget) -> (Result<u64, CountStop>, KernelStats) {
        let mut total = 0u64;
        let mut state = BudgetState::new(budget);
        if state.expired_at_entry() {
            return (Err(CountStop::Budget), state.stats);
        }
        let complete = recurse_count(
            self.graph,
            &self.cons,
            &self.depths,
            &self.indep,
            &mut self.bufs,
            &mut self.caches,
            &mut self.memos,
            &mut self.binding,
            &mut state,
            1,
            &mut total,
            0,
        );
        let stop = if state.overflowed {
            CountStop::Overflow
        } else {
            CountStop::Budget
        };
        (if complete { Ok(total) } else { Err(stop) }, state.stats)
    }
}

/// One recursion step: tally the completions of the bound prefix, an
/// independent suffix as a product of candidate-set sizes (weighted by
/// pendant-tree weights where the plan is factorized) instead of
/// binding by binding. `wprod` is the running product of the bound
/// prefix's weights. Returns `false` when the budget stops the count,
/// or when the count passes `u64::MAX` (`state` says which): every
/// contribution added to `total` is exact, so a sum or product of them
/// that overflows proves the count does.
///
/// This entry point consults the depth's [`SuffixMemo`] (when the plan
/// built one): a valid entry answers the whole suffix in O(1); a miss
/// computes the suffix through [`recurse_count_inner`] with the prefix
/// weight factored out, stores it, then scales by `wprod`.
#[allow(clippy::too_many_arguments)]
fn recurse_count(
    graph: &LabeledGraph,
    cons: &VarConstraints,
    depths: &[DepthPlan],
    indep: &[bool],
    bufs: &mut [Vec<VertexId>],
    caches: &mut [Option<BitsetCache>],
    memos: &mut [Option<SuffixMemo>],
    binding: &mut [VertexId],
    state: &mut BudgetState,
    wprod: u64,
    total: &mut u64,
    level: u32,
) -> bool {
    if depths.is_empty() {
        let Some(t) = total.checked_add(wprod) else {
            return state.overflow();
        };
        *total = t;
        // A weighted leaf stands for `wprod` enumerated bindings; charge
        // the bulk beyond the one candidate already charged.
        if wprod > 1 && !state.charge_many(wprod - 1) {
            return false;
        }
        return true;
    }
    // Memo lookup: resolve the hit entirely here; on an in-domain miss,
    // remember (key, anchor) so the computed suffix can be stored below.
    let pending: Option<(usize, VertexId)> = match memos[0].as_mut() {
        Some(m) => {
            let aval = match m.anchor_var {
                Some(a) => binding[a as usize],
                None => 0,
            };
            let c = binding[m.key_var as usize] as usize;
            match m.slots.get(c) {
                // `aval == MAX` (an out-of-domain Fixed anchor) would
                // collide with the sentinel: skip the table.
                Some(&s) if s.anchor == aval && aval != VertexId::MAX => {
                    let Some((contrib, t)) = add_product(*total, wprod, s.count) else {
                        return state.overflow();
                    };
                    *total = t;
                    state.stats.memo_hits += 1;
                    return state.charge_many(contrib);
                }
                Some(_) if aval != VertexId::MAX => Some((c, aval)),
                // Out-of-domain key binding (a Fixed constraint beyond
                // the vertex domain): skip the table.
                _ => None,
            }
        }
        None => None,
    };
    if let Some((c, aval)) = pending {
        let mut sub = 0u64;
        if !recurse_count_inner(
            graph, cons, depths, indep, bufs, caches, memos, binding, state, 1, &mut sub, level,
        ) {
            return false; // aborted subtrees must not be stored
        }
        let m = memos[0].as_mut().expect("pending implies a memo");
        m.slots[c] = MemoSlot {
            anchor: aval,
            count: sub,
        };
        let Some((_, t)) = add_product(*total, wprod, sub) else {
            return state.overflow();
        };
        *total = t;
        return true;
    }
    recurse_count_inner(
        graph, cons, depths, indep, bufs, caches, memos, binding, state, wprod, total, level,
    )
}

/// The body of [`recurse_count`]: candidate generation and extension for
/// `depths[0]`, with the independent-suffix product shortcut. Never
/// called with empty `depths`.
#[allow(clippy::too_many_arguments)]
fn recurse_count_inner(
    graph: &LabeledGraph,
    cons: &VarConstraints,
    depths: &[DepthPlan],
    indep: &[bool],
    bufs: &mut [Vec<VertexId>],
    caches: &mut [Option<BitsetCache>],
    memos: &mut [Option<SuffixMemo>],
    binding: &mut [VertexId],
    state: &mut BudgetState,
    wprod: u64,
    total: &mut u64,
    level: u32,
) -> bool {
    if indep[0] {
        // A product that overflows with a later factor of 0 proves
        // nothing: `suffix_product` gives up, and enumeration counts.
        if let Some(prod) = suffix_product(graph, depths, bufs, caches, binding, state) {
            let Some((contrib, t)) = add_product(*total, wprod, prod) else {
                return state.overflow();
            };
            if !state.charge_many(contrib) {
                return false;
            }
            state.stats.suffix_shortcuts += 1;
            *total = t;
            return true;
        }
    }
    let (dp, rest_depths) = depths.split_first().expect("checked non-empty");
    let (buf, rest_bufs) = bufs.split_first_mut().expect("one buffer per depth");
    let (cache, rest_caches) = caches.split_first_mut().expect("one cache slot per depth");
    let rest_memos = &mut memos[1..];
    let rest_indep = &indep[1..];

    macro_rules! extend {
        ($candidates:expr, $len:expr) => {{
            let vc = cons.get(dp.var);
            let len = $len as u64;
            if len > 0 {
                // The whole list is charged up front: one budget touch
                // and one (length-weighted) deadline countdown per list
                // instead of per candidate.
                if !state.charge_list(len) {
                    return false;
                }
                if state.stats.deepest_level < (level + 1) as u64 {
                    state.stats.deepest_level = (level + 1) as u64;
                }
            }
            'cand: for c in $candidates {
                if !vc.admits(c) {
                    continue;
                }
                for &l in &dp.self_loops {
                    if !graph.has_edge(c, c, l) {
                        continue 'cand;
                    }
                }
                let cw = match &dp.weight {
                    None => Some(wprod),
                    // Out-of-domain bindings (possible only via a Fixed
                    // constraint) have no pendant extensions: weight 0.
                    Some(w) => wprod.checked_mul(w.get(c as usize).copied().unwrap_or(0)),
                };
                if cw == Some(0) {
                    // Every completion would contribute 0.
                    continue;
                }
                binding[dp.var as usize] = c;
                // A prefix weight past u64::MAX overflows the count only
                // if the suffix completes: count the suffix unweighted.
                let mut sub = 0u64;
                let (weight, into) = match cw {
                    Some(cw) => (cw, &mut *total),
                    None => (1, &mut sub),
                };
                if !recurse_count(
                    graph,
                    cons,
                    rest_depths,
                    rest_indep,
                    rest_bufs,
                    rest_caches,
                    rest_memos,
                    binding,
                    state,
                    weight,
                    into,
                    level + 1,
                ) {
                    return false;
                }
                if sub > 0 {
                    return state.overflow();
                }
            }
            true
        }};
    }

    match dp.edges.len() {
        0 => match &dp.root {
            RootGen::Fixed(u) => extend!(std::iter::once(*u), 1),
            RootGen::List(list) => extend!(list.iter().copied(), list.len()),
            RootGen::Scan => extend!(0..graph.num_vertices() as VertexId, graph.num_vertices()),
            RootGen::Bound => unreachable!("Bound root with no planned edges"),
        },
        1 => {
            let list = neighbor_slice(graph, &dp.edges[0], binding);
            extend!(list.iter().copied(), list.len())
        }
        k => {
            let mut lists: [&[VertexId]; MAX_QUERY_EDGES] = [&[]; MAX_QUERY_EDGES];
            for (i, pe) in dp.edges.iter().enumerate() {
                lists[i] = neighbor_slice(graph, pe, binding);
            }
            if let Some(cache) = cache {
                bitset_fill(dp, cache, &lists[..k], binding, buf, state);
            } else {
                intersect_k_into(&mut lists[..k], buf, &mut state.stats.gallop_intersections);
            }
            extend!(buf.iter().copied(), buf.len())
        }
    }
}

/// Rebuild `cache`'s bitset over the stable edge's neighbour list when
/// the stable binding moved since it was built, and return that list.
/// `lists` must be the neighbour slices of `dp.edges`, index-aligned.
#[inline]
fn refresh_bitset<'l>(
    dp: &DepthPlan,
    cache: &mut BitsetCache,
    lists: &[&'l [VertexId]],
    binding: &[VertexId],
) -> &'l [VertexId] {
    let stable = lists[cache.edge_idx];
    let anchor = binding[dp.edges[cache.edge_idx].other as usize];
    if cache.stamp != Some(anchor) {
        cache.bits.reset(stable);
        cache.stamp = Some(anchor);
    }
    stable
}

/// Whether a probe of `probe` elements gallops through the stable list
/// instead of walking the cached bitset of `cached` members
/// ([`GALLOP_RATIO`]).
#[inline]
fn gallops_past_bitset(cached: usize, probe: usize) -> bool {
    probe > 0 && cached / probe >= GALLOP_RATIO
}

/// Candidate generation through a depth's bitset cache
/// ([`refresh_bitset`]), ANDing the remaining lists against it.
fn bitset_fill(
    dp: &DepthPlan,
    cache: &mut BitsetCache,
    lists: &[&[VertexId]],
    binding: &[VertexId],
    buf: &mut Vec<VertexId>,
    state: &mut BudgetState,
) {
    let stable = refresh_bitset(dp, cache, lists, binding);
    buf.clear();
    if cache.bits.is_empty() {
        return;
    }
    // Shortest probe first: the intermediate result is then bounded by
    // the smallest list, preserving the plan-time buffer capacity bound.
    let shortest = lists
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != cache.edge_idx)
        .min_by_key(|&(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("bitset depths have at least two edges");
    let probe = lists[shortest];
    if gallops_past_bitset(cache.bits.len(), probe.len()) {
        state.stats.gallop_intersections += 1;
        intersect_into(probe, stable, buf);
    } else {
        state.stats.bitset_intersections += 1;
        cache.bits.filter_into(probe, buf);
    }
    // Any further lists (three-plus-edge depths) refine the buffer in
    // place.
    for (i, l) in lists.iter().enumerate() {
        if i == cache.edge_idx || i == shortest {
            continue;
        }
        if buf.is_empty() {
            return;
        }
        state.stats.gallop_intersections += 1;
        refine_in_place(buf, l);
    }
}

/// `(weight · count, total + weight · count)`, or `None` when either
/// overflows `u64`.
fn add_product(total: u64, weight: u64, count: u64) -> Option<(u64, u64)> {
    let contrib = weight.checked_mul(count)?;
    Some((contrib, total.checked_add(contrib)?))
}

/// Candidate-set size product of a fully independent suffix — with
/// pendant-tree weights, the product of per-depth weight *sums* — or
/// `None` on u64 overflow.
fn suffix_product(
    graph: &LabeledGraph,
    depths: &[DepthPlan],
    bufs: &mut [Vec<VertexId>],
    caches: &mut [Option<BitsetCache>],
    binding: &[VertexId],
    state: &mut BudgetState,
) -> Option<u64> {
    let mut prod = 1u64;
    for ((dp, buf), cache) in depths.iter().zip(bufs.iter_mut()).zip(caches.iter_mut()) {
        let candidates: &[VertexId] = match dp.edges.len() {
            0 => match &dp.root {
                RootGen::List(list) => {
                    if dp.weight.is_none() {
                        prod = prod.checked_mul(list.len() as u64)?;
                        if prod == 0 {
                            return Some(0);
                        }
                        continue;
                    }
                    // Weighted root: the Σw over the fixed list was
                    // precomputed at plan time (None ⇒ it overflowed).
                    prod = prod.checked_mul(dp.root_weight_sum?)?;
                    if prod == 0 {
                        return Some(0);
                    }
                    continue;
                }
                RootGen::Scan => {
                    let total = match &dp.weight {
                        None => graph.num_vertices() as u64,
                        Some(_) => dp.root_weight_sum?,
                    };
                    prod = prod.checked_mul(total)?;
                    if prod == 0 {
                        return Some(0);
                    }
                    continue;
                }
                // Fixed roots are excluded by the `indep` analysis;
                // Bound contradicts `edges.is_empty()`.
                RootGen::Fixed(_) | RootGen::Bound => unreachable!("excluded from suffixes"),
            },
            1 => neighbor_slice(graph, &dp.edges[0], binding),
            k => {
                let mut lists: [&[VertexId]; MAX_QUERY_EDGES] = [&[]; MAX_QUERY_EDGES];
                for (i, pe) in dp.edges.iter().enumerate() {
                    lists[i] = neighbor_slice(graph, pe, binding);
                }
                if let Some(cache) = cache {
                    if k == 2 && dp.weight.is_none() {
                        // Counting-only fast path: pop-count the probe
                        // against the cached bitset, no buffer write.
                        let len = bitset_count(dp, cache, &lists[..k], binding, state);
                        prod = prod.checked_mul(len as u64)?;
                        if prod == 0 {
                            return Some(0);
                        }
                        continue;
                    }
                    bitset_fill(dp, cache, &lists[..k], binding, buf, state);
                } else {
                    intersect_k_into(&mut lists[..k], buf, &mut state.stats.gallop_intersections);
                }
                &buf[..]
            }
        };
        let term = match &dp.weight {
            None => candidates.len() as u64,
            Some(w) => candidates
                .iter()
                .try_fold(0u64, |a, &c| a.checked_add(w[c as usize]))?,
        };
        prod = prod.checked_mul(term)?;
        if prod == 0 {
            return Some(0);
        }
    }
    Some(prod)
}

/// The counting-only twin of [`bitset_fill`] for two-edge depths: the
/// number of probe hits against the cached bitset, written nowhere.
fn bitset_count(
    dp: &DepthPlan,
    cache: &mut BitsetCache,
    lists: &[&[VertexId]],
    binding: &[VertexId],
    state: &mut BudgetState,
) -> usize {
    let stable = refresh_bitset(dp, cache, lists, binding);
    if cache.bits.is_empty() {
        return 0;
    }
    let probe = lists[1 - cache.edge_idx];
    if gallops_past_bitset(cache.bits.len(), probe.len()) {
        state.stats.gallop_intersections += 1;
        gallop_count(probe, stable)
    } else {
        state.stats.bitset_intersections += 1;
        cache.bits.count_hits(probe)
    }
}

/// The neighbour slice a planned edge induces under the current binding.
#[inline]
fn neighbor_slice<'g>(
    graph: &'g LabeledGraph,
    pe: &PlannedEdge,
    binding: &[VertexId],
) -> &'g [VertexId] {
    let o = binding[pe.other as usize];
    if pe.forward {
        graph.out_neighbors(o, pe.label)
    } else {
        graph.in_neighbors(o, pe.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceg_graph::{GraphBuilder, LabeledGraph};
    use ceg_query::{templates, QueryEdge};

    fn constrained(g: &LabeledGraph, q: &QueryGraph, cons: &VarConstraints) -> u64 {
        count_budgeted(g, q, cons, CountBudget::UNLIMITED)
            .0
            .unwrap()
    }

    /// Graph: label 0 = path edges 0->1->2->3; label 1 = 1->3, 3->3 (loop).
    fn sample() -> LabeledGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 3, 0);
        b.add_edge(1, 3, 1);
        b.add_edge(3, 3, 1);
        b.build()
    }

    #[test]
    fn single_edge_count_is_relation_size() {
        let g = sample();
        let q = templates::path(1, &[0]);
        assert_eq!(count(&g, &q), 3);
        let q1 = templates::path(1, &[1]);
        assert_eq!(count(&g, &q1), 2);
    }

    #[test]
    fn two_path_count() {
        let g = sample();
        let q = templates::path(2, &[0, 0]);
        // 0->1->2 and 1->2->3
        assert_eq!(count(&g, &q), 2);
    }

    #[test]
    fn homomorphism_semantics_allow_repeats() {
        // query a0 -1-> a1 -1-> a2 on graph with 1->3, 3->3:
        // matches: (1,3,3) and (3,3,3).
        let g = sample();
        let q = templates::path(2, &[1, 1]);
        assert_eq!(count(&g, &q), 2);
    }

    #[test]
    fn self_loop_query() {
        let g = sample();
        let q = QueryGraph::new(1, vec![QueryEdge::new(0, 0, 1)]);
        assert_eq!(count(&g, &q), 1); // only vertex 3
    }

    #[test]
    fn triangle_count() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 0, 0);
        let g = b.build();
        let q = templates::cycle(3, &[0, 0, 0]);
        // the directed triangle matches at 3 rotations
        assert_eq!(count(&g, &q), 3);
    }

    #[test]
    fn star_count_is_degree_product() {
        let mut b = GraphBuilder::new(5);
        for d in 1..5 {
            b.add_edge(0, d, 0);
        }
        let g = b.build();
        // 2-star: ordered pairs of out-neighbours = 4*4 = 16 homomorphisms
        let q = templates::star(2, &[0, 0]);
        assert_eq!(count(&g, &q), 16);
    }

    #[test]
    fn constrained_count_partitions_sum_to_total() {
        let g = sample();
        let q = templates::path(2, &[0, 0]);
        let total = count(&g, &q);
        let buckets = 3u32;
        let mut sum = 0;
        for b0 in 0..buckets {
            let mut cons = VarConstraints::none(3);
            cons.set(
                1,
                VarConstraint::HashBucket {
                    buckets,
                    bucket: b0,
                },
            );
            sum += constrained(&g, &q, &cons);
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn fixed_constraint_counts_extensions() {
        let g = sample();
        let q = templates::path(1, &[0]);
        let mut cons = VarConstraints::none(2);
        cons.set(0, VarConstraint::Fixed(1));
        assert_eq!(constrained(&g, &q, &cons), 1); // 1 -> 2
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let g = sample();
        let q = templates::path(2, &[0, 0]);
        let (res, _) = count_budgeted(&g, &q, &VarConstraints::none(3), CountBudget::new(1));
        assert_eq!(res, Err(CountStop::Budget));
    }

    #[test]
    fn expired_deadline_returns_none() {
        let g = sample();
        let q = templates::path(2, &[0, 0]);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let (res, _) = count_budgeted(&g, &q, &VarConstraints::none(3), CountBudget::until(past));
        assert_eq!(res, Err(CountStop::Budget));
        // A comfortably distant deadline changes nothing.
        let future = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let (res, _) = count_budgeted(&g, &q, &VarConstraints::none(3), CountBudget::until(future));
        assert_eq!(res, Ok(2));
        // Deadlines compose with expansion budgets: whichever trips first
        // aborts.
        let (res, _) = count_budgeted(
            &g,
            &q,
            &VarConstraints::none(3),
            CountBudget {
                max_expansions: 1,
                deadline: Some(future),
            },
        );
        assert_eq!(res, Err(CountStop::Budget));
    }

    /// One hub with 70,000 out-edges: a 4-edge star over them has
    /// 70,000⁴ ≈ 2.4e19 homomorphisms, past `u64::MAX`.
    fn overflowing_star() -> (LabeledGraph, QueryGraph) {
        let mut b = GraphBuilder::with_labels(70_001, 1);
        for v in 1..=70_000 {
            b.add_edge(0, v, 0);
        }
        (b.build(), templates::star(4, &[0; 4]))
    }

    #[test]
    fn an_overflowing_count_is_its_own_outcome() {
        let (g, q) = overflowing_star();
        let cons = VarConstraints::none(q.num_vars());
        // The tree DP overflows and hands the star to the kernel, which
        // proves the count itself does.
        let (res, _) = count_budgeted(&g, &q, &cons, CountBudget::UNLIMITED);
        assert_eq!(res, Err(CountStop::Overflow));
        let mut plan = CountPlan::new(&g, &q, &cons);
        assert_eq!(
            plan.count(CountBudget::UNLIMITED).0,
            Err(CountStop::Overflow)
        );
        // A budget that runs out first is still the budget.
        let (res, _) = count_budgeted(&g, &q, &cons, CountBudget::new(1_000));
        assert_eq!(res, Err(CountStop::Budget));
    }

    /// Cores whose corners each carry three pendant edges into the same
    /// 3,000 leaves: factorized, every corner weighs 3,000³ and any two
    /// corners' product passes `u64::MAX`, so the count overflows only if
    /// the core embeds. The triangle overflows where a memoized suffix is
    /// scaled by its prefix; the K4, whose constrained corners leave no
    /// independent suffix and no memo at its last depth, in the prefix
    /// weight itself.
    #[test]
    fn weighted_products_overflow_only_a_completed_count() {
        let triangle: &[(u32, u32)] = &[(0, 1), (1, 2), (2, 0)];
        let k4: &[(u32, u32)] = &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        for (core, corners, constrained) in [(triangle, 3u32, false), (k4, 4, true)] {
            let mut edges: Vec<QueryEdge> = core
                .iter()
                .map(|&(s, d)| QueryEdge::new(s as VarId, d as VarId, 1))
                .collect();
            for c in 0..corners {
                for k in 0..3 {
                    edges.push(QueryEdge::new(
                        c as VarId,
                        (corners + 3 * c + k) as VarId,
                        0,
                    ));
                }
            }
            let q = QueryGraph::new((4 * corners) as VarId, edges);
            let mut cons = VarConstraints::none(q.num_vars());
            if constrained {
                let all = VarConstraint::HashBucket {
                    buckets: 1,
                    bucket: 0,
                };
                for c in 0..corners {
                    cons.set(c as VarId, all);
                }
            }
            for closed in [true, false] {
                let mut b = GraphBuilder::with_labels(corners as usize + 3_000, 2);
                let (&(s, d), rest) = core.split_last().expect("a core has edges");
                rest.iter().for_each(|&(s, d)| b.add_edge(s, d, 1));
                if closed {
                    b.add_edge(s, d, 1);
                }
                for c in 0..corners {
                    (corners..corners + 3_000).for_each(|leaf| b.add_edge(c, leaf, 0));
                }
                let want = if closed {
                    Err(CountStop::Overflow)
                } else {
                    Ok(0)
                };
                let (got, _) = count_budgeted(&b.build(), &q, &cons, CountBudget::UNLIMITED);
                assert_eq!(got, want, "{q}, closed: {closed}");
            }
        }
    }

    /// Five pendant edges into 4,000 leaves weigh 4,000⁵ ≈ 1.0e18, so
    /// 20 or more such completions pass `u64::MAX`. Each query below
    /// overflows through a sum of exact contributions, not a product.
    #[test]
    fn a_sum_of_weighted_completions_overflows() {
        let e = QueryEdge::new;
        let pendants = |v: VarId, first: VarId| (0..5).map(move |k| e(v, first + k, 0));
        let leaves = |b: &mut GraphBuilder, owners: std::ops::Range<u32>, first: u32| {
            for v in owners {
                (first..first + 4_000).for_each(|leaf| b.add_edge(v, leaf, 0));
            }
        };
        // A triangle, every corner constrained so no depth is an
        // independent suffix, whose middle variable takes 20 values:
        // 20 weighted leaves of the kernel's recursion.
        let mut edges = vec![e(0, 1, 1), e(1, 2, 1), e(2, 0, 1)];
        edges.extend(pendants(1, 3));
        let triangle = QueryGraph::new(8, edges);
        let mut cons = VarConstraints::none(8);
        for c in 0..3 {
            let all = VarConstraint::HashBucket {
                buckets: 1,
                bucket: 0,
            };
            cons.set(c, all);
        }
        let mut b = GraphBuilder::with_labels(4_022, 2);
        b.add_edge(0, 1, 1);
        for m in 2..22 {
            b.add_edge(1, m, 1);
            b.add_edge(m, 0, 1);
        }
        leaves(&mut b, 2..22, 22);
        let (got, _) = count_budgeted(&b.build(), &triangle, &cons, CountBudget::UNLIMITED);
        assert_eq!(got, Err(CountStop::Overflow));

        // A 4-cycle z → w → x → y → z closed 30 times through 5 weighted
        // w: its bulk charges exhaust a `u64::MAX` allowance just before
        // the count overflows, so the unlimited budget must set none.
        let mut edges = vec![e(0, 1, 1), e(1, 2, 1), e(2, 3, 1), e(3, 0, 1)];
        edges.extend(pendants(1, 4));
        let square = QueryGraph::new(9, edges);
        // x = 0, y = 1 and 2, z = 3..7, w = 7..12, leaves from 12.
        let mut b = GraphBuilder::with_labels(4_012, 2);
        for (y, zs) in [(1, 5..7), (2, 3..7)] {
            b.add_edge(0, y, 1);
            zs.for_each(|z| b.add_edge(y, z, 1));
        }
        for w in 7..12 {
            (3..7).for_each(|z| b.add_edge(z, w, 1));
            b.add_edge(w, 0, 1);
        }
        leaves(&mut b, 7..12, 12);
        let cons = VarConstraints::none(9);
        let (got, _) = count_budgeted(&b.build(), &square, &cons, CountBudget::UNLIMITED);
        assert_eq!(got, Err(CountStop::Overflow));
    }

    /// A memo hit that overflows: the 5-ring x0 → x1 → x2 → x3 → x4 → x0
    /// binds x0, x4, x3, x2, x1 (a ring walk from the rare x0 → x1), so
    /// depth 3's memo is keyed by x3 under anchor x0, and two values of
    /// the middle variable x4 reach the slot of one x3. Five pendant
    /// edges into 4,000 leaves weigh each x1 4,000⁵ ≈ 1.0e18, and each
    /// x3 closes through ten x1, so one x3's suffix counts ≈ 1.0e19 and
    /// fits. The first x4 reaches only x3 = c and stores its slot; the
    /// second reaches c' then c, and the hit on c's slot passes
    /// `u64::MAX`.
    #[test]
    fn a_memo_hit_overflows() {
        let e = QueryEdge::new;
        let mut edges = vec![e(0, 1, 2), e(1, 2, 1), e(2, 3, 1), e(3, 4, 1), e(4, 0, 1)];
        edges.extend((5..10).map(|p| e(1, p, 0)));
        let q = QueryGraph::new(10, edges);
        // x0 = 0; x4: 1 and 2; x3: c' = 3, c = 4; x2: 5 (into c) and
        // 6 (into c'); x1: 7..17; leaves from 17.
        let mut b = GraphBuilder::with_labels(4_017, 3);
        let (a, c_prime, c) = (0, 3, 4);
        for x4 in [1, 2] {
            b.add_edge(x4, a, 1);
            b.add_edge(c, x4, 1);
        }
        b.add_edge(c_prime, 2, 1);
        b.add_edge(5, c, 1);
        b.add_edge(6, c_prime, 1);
        for x1 in 7..17 {
            b.add_edge(a, x1, 2);
            b.add_edge(x1, 5, 1);
            b.add_edge(x1, 6, 1);
            (17..4_017).for_each(|leaf| b.add_edge(x1, leaf, 0));
        }
        let cons = VarConstraints::none(10);
        let (got, _) = count_budgeted(&b.build(), &q, &cons, CountBudget::UNLIMITED);
        assert_eq!(got, Err(CountStop::Overflow));
    }

    #[test]
    #[should_panic(expected = "the count overflows u64")]
    fn count_panics_naming_the_overflow() {
        let (g, q) = overflowing_star();
        count(&g, &q);
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = GraphBuilder::with_labels(0, 1).build();
        let q = templates::path(2, &[0, 0]);
        assert_eq!(count(&g, &q), 0);
    }

    #[test]
    fn q5f_on_small_graph() {
        // hand-checkable fork: hub vertex 1 with B in, and C,D,E out.
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 7, 0); // A: 0 -> 7
        b.add_edge(7, 1, 1); // B: 7 -> 1
        b.add_edge(1, 2, 2); // C
        b.add_edge(1, 3, 2); // C (two C-edges)
        b.add_edge(1, 4, 3); // D
        b.add_edge(1, 5, 4); // E
        let g = b.build();
        let q = templates::q5f(&[0, 1, 2, 3, 4]);
        // A,B fixed; C has 2 choices; D and E one each => 2 matches
        assert_eq!(count(&g, &q), 2);
    }

    #[test]
    fn plan_is_reusable_across_runs() {
        let g = sample();
        let q = templates::path(2, &[0, 0]);
        let cons = VarConstraints::none(3);
        let mut plan = CountPlan::new(&g, &q, &cons);
        let first = plan.count(CountBudget::UNLIMITED).0;
        assert_eq!(first, Ok(2));
        for _ in 0..3 {
            assert_eq!(plan.count(CountBudget::UNLIMITED).0, first);
        }
        assert_eq!(plan.count(CountBudget::new(1)).0, Err(CountStop::Budget));
        assert_eq!(plan.count(CountBudget::UNLIMITED).0, first); // budget run leaves no residue
    }

    #[test]
    fn parallel_query_edges_intersect() {
        // two data edges 0->1 under labels 0 and 1, plus decoys; the query
        // demands both labels between the same pair of variables.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 0);
        b.add_edge(0, 3, 1);
        let g = b.build();
        let q = QueryGraph::new(2, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(0, 1, 1)]);
        assert_eq!(count(&g, &q), 1);
    }

    #[test]
    fn disconnected_query_root_is_label_restricted() {
        // two independent edges: cartesian product of the relations
        let g = sample();
        let q = QueryGraph::new(4, vec![QueryEdge::new(0, 1, 0), QueryEdge::new(2, 3, 1)]);
        assert_eq!(count(&g, &q), 3 * 2);
    }

    /// The kernel's own counters, read off the plan: the free functions
    /// send acyclic queries to the tree DP, whose accounting
    /// `tree_count`'s tests pin.
    #[test]
    fn kernel_stats_reflect_the_work_done() {
        let g = sample();
        let q = templates::path(2, &[0, 0]);
        let cons = VarConstraints::none(3);
        let kernel = |g, q, budget| CountPlan::new(g, q, &cons).count(budget);
        let (count, stats) = kernel(&g, &q, CountBudget::UNLIMITED);
        assert_eq!(count, Ok(2));
        assert!(stats.candidates > 0, "candidates were visited");
        assert!(stats.budget_consumed >= stats.candidates);
        assert!(stats.deepest_level >= 1, "at least one variable bound");
        assert!(stats.deepest_level <= 3);

        // A 2-star's leaves form an independent suffix: the product
        // shortcut must fire and charge in bulk.
        let star = templates::star(2, &[0, 0]);
        let (count, stats) = kernel(&g, &star, CountBudget::UNLIMITED);
        assert!(count.is_ok());
        assert!(stats.suffix_shortcuts > 0, "independent suffix shortcut");
        assert!(stats.budget_consumed >= stats.candidates);

        // An aborted run still reports the work done before the trip.
        let (aborted, stats) = kernel(&g, &q, CountBudget::new(1));
        assert_eq!(aborted, Err(CountStop::Budget));
        assert_eq!(stats.budget_consumed, 1);

        // Multi-constraint depths classify their intersections.
        let tri = templates::cycle(3, &[0, 0, 0]);
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0);
        b.add_edge(1, 2, 0);
        b.add_edge(2, 0, 0);
        let tg = b.build();
        let (count, stats) = count_budgeted(&tg, &tri, &cons, CountBudget::UNLIMITED);
        assert_eq!(count, Ok(3));
        assert!(
            stats.gallop_intersections > 0,
            "the closing triangle edge intersects two lists"
        );
    }

    #[test]
    fn matcher_counts_agree_with_naive_on_templates() {
        let g = sample();
        for q in [
            templates::path(3, &[0, 0, 1]),
            templates::star(3, &[0, 0, 1]),
            templates::cycle(4, &[0, 0, 0, 1]),
            templates::q5f(&[0, 1, 1, 0, 1]),
        ] {
            let cons = VarConstraints::none(q.num_vars());
            assert_eq!(
                constrained(&g, &q, &cons),
                crate::naive::count_naive(&g, &q, &cons),
                "mismatch on {q}"
            );
        }
    }
}
