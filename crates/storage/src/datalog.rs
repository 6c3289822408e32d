//! Datalog over the relational engine.
//!
//! Section 5.2 of the paper translates belief conjunctive queries "into
//! non-recursive Datalog (and, hence, to SQL)". This module is that target
//! language: rules with positive atoms, negated atoms (safe, i.e. all their
//! variables bound positively), comparison literals, and — because
//! Algorithm 1's conditions for negative subgoals "require nested
//! disjunctions with negation" — a DNF disjunction literal.
//!
//! Rules compile to [`Plan`]s: positive atoms become joins, negated atoms
//! anti-joins, comparisons selections. Non-recursive programs (everything
//! Algorithm 1 emits) materialize derived relations rule-at-a-time in
//! definition order. Recursive programs — which the magic-sets rewrite
//! ([`crate::opt::magic`]) produces for recursive demand — are evaluated
//! stratum-by-stratum with semi-naive fixpoint iteration: each round
//! joins only against the previous round's newly derived tuples.

use crate::catalog::Database;
use crate::error::{Result, StorageError};
use crate::exec::execute;
use crate::expr::{CmpOp, Expr};
use crate::plan::Plan;
use crate::row::Row;
use crate::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Entries kept in a [`PlanCache`] before first-in-first-out eviction.
const PLAN_CACHE_CAP: usize = 64;

/// Total rows embedded (as `Values` leaves) across all cached plans the
/// cache will hold; entries are evicted FIFO past this budget, and a
/// single program whose plans embed more than the whole budget is not
/// cached at all. Keeps the cache from pinning large intermediate
/// results in memory after queries complete.
const PLAN_CACHE_ROW_BUDGET: usize = 200_000;

/// A cache of optimized physical plans for the *answer* rules of whole
/// programs, keyed by the program's deterministic textual rendering plus
/// a table version vector captured at planning time. Repeat queries
/// against an unmutated database skip compilation, every optimizer
/// rewrite pass, **and the re-derivation of intermediate relations**.
/// Invalidation is precise to the program's *read set*
/// ([`PlanCache::read_versions`]): entries record the version of every
/// base table the program's rules reference, so a mutation of an
/// unrelated table leaves cached answers valid. (The coarse
/// whole-database vector, [`PlanCache::db_versions`], remains available
/// for callers that key manually.)
///
/// Only the plans of rules deriving the final head are stored: by
/// compile time every derived relation they read is embedded as a
/// `Values` leaf, so they are self-contained. Replaying them is sound
/// because program evaluation is deterministic — with identical
/// base-table versions every derived relation is reproduced exactly.
/// For the same reason the cache only serves evaluators with **no
/// pre-registered derived relations** ([`Evaluator::define`]) — those
/// rows are outside the cache key.
///
/// Locking discipline: [`PlanCache::lookup`] and [`PlanCache::store`]
/// are brief (a version compare plus an `Arc` clone); callers holding
/// the cache behind a mutex should release it while the plans execute
/// (see `beliefdb-core`'s `bcq::translate::evaluate`).
pub struct PlanCache {
    entries: HashMap<String, CachedProgram>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<String>,
    /// Rows embedded across all cached entries (tracked against the
    /// budget).
    total_rows: usize,
    row_budget: usize,
    hits: u64,
    misses: u64,
}

struct CachedProgram {
    /// `(table, version)` per table, sorted by name (the catalog order).
    versions: Vec<(String, u64)>,
    /// Optimized plans of the rules deriving the final head, in program
    /// order, shared so a cache hit never deep-copies embedded rows.
    plans: Arc<Vec<Plan>>,
    /// Rows embedded in `plans` as `Values` leaves.
    rows: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache::with_row_budget(PLAN_CACHE_ROW_BUDGET)
    }

    /// A cache with an explicit embedded-row budget (tests and memory-
    /// constrained embedders).
    pub fn with_row_budget(row_budget: usize) -> Self {
        PlanCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            total_rows: 0,
            row_budget,
            hits: 0,
            misses: 0,
        }
    }

    /// The coarse version vector: every table in the database. Kept for
    /// callers that key entries manually; [`PlanCache::read_versions`]
    /// is the precise (and default) choice.
    pub fn db_versions(db: &Database) -> Vec<(String, u64)> {
        db.table_names()
            .into_iter()
            .map(|n| {
                let v = db.table(n).expect("name from catalog").version();
                (n.to_string(), v)
            })
            .collect()
    }

    /// The version vector of the base tables `program` actually reads:
    /// every table referenced by a body atom (positive or negated),
    /// sorted by name. Derived relations have no version — program
    /// evaluation is deterministic, so with identical base-table
    /// versions every derived relation is reproduced exactly — and
    /// tables the program never touches are deliberately absent: their
    /// mutations must not invalidate this program's entry.
    pub fn read_versions(db: &Database, program: &Program) -> Vec<(String, u64)> {
        let mut names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for rule in &program.rules {
            for lit in &rule.body {
                if let BodyLit::Pos(a) | BodyLit::Neg(a) = lit {
                    names.insert(a.relation.as_str());
                }
            }
        }
        names
            .into_iter()
            .filter(|n| db.has_table(n))
            .map(|n| {
                let v = db.table(n).expect("existence checked").version();
                (n.to_string(), v)
            })
            .collect()
    }

    /// True when `program` reads (or derives into) any registered
    /// virtual (`sys.*`) relation. Such programs must never be cached:
    /// virtual rows are scan-time snapshots with no version counter, so
    /// [`PlanCache::read_versions`] cannot represent them and a cached
    /// entry would silently serve stale introspection data. All cached
    /// entry points check this and fall back to direct evaluation.
    pub fn program_reads_virtual(db: &Database, program: &Program) -> bool {
        program.rules.iter().any(|rule| {
            db.is_virtual(&rule.head.relation)
                || rule.body.iter().any(|lit| match lit {
                    BodyLit::Pos(a) | BodyLit::Neg(a) => db.is_virtual(&a.relation),
                    _ => false,
                })
        })
    }

    /// Cached answer plans for `key`, if present and planned at exactly
    /// these table versions. Counts a hit or miss.
    pub fn lookup(&mut self, key: &str, versions: &[(String, u64)]) -> Option<Arc<Vec<Plan>>> {
        match self.entries.get(key) {
            Some(entry) if entry.versions == versions => {
                self.hits += 1;
                crate::obs::metrics().incr(crate::obs::Metric::PlanCacheHits);
                Some(Arc::clone(&entry.plans))
            }
            _ => {
                self.misses += 1;
                crate::obs::metrics().incr(crate::obs::Metric::PlanCacheMisses);
                None
            }
        }
    }

    /// Record the answer plans of a freshly planned program. Oversized
    /// entries (more embedded rows than the whole budget) are dropped;
    /// otherwise older entries are evicted FIFO until both the entry
    /// count and the row budget fit.
    pub fn store(&mut self, key: String, versions: Vec<(String, u64)>, plans: Vec<Plan>) {
        let rows: usize = plans.iter().map(embedded_rows).sum();
        if rows > self.row_budget {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.total_rows -= old.rows;
            self.order.retain(|k| k != &key);
        }
        while !self.order.is_empty()
            && (self.order.len() >= PLAN_CACHE_CAP || self.total_rows + rows > self.row_budget)
        {
            let victim = self.order.pop_front().expect("order non-empty");
            if let Some(evicted) = self.entries.remove(&victim) {
                self.total_rows -= evicted.rows;
            }
        }
        self.total_rows += rows;
        self.order.push_back(key.clone());
        self.entries.insert(
            key,
            CachedProgram {
                versions,
                plans: Arc::new(plans),
                rows,
            },
        );
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rows embedded (as `Values` leaves) across all cached entries.
    pub fn embedded_row_count(&self) -> usize {
        self.total_rows
    }

    /// Lookups served from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to plan from scratch.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Rows a plan carries inline as `Values` leaves (the memory a cached
/// plan pins).
fn embedded_rows(plan: &Plan) -> usize {
    let own = match plan {
        Plan::Values { rows, .. } => rows.len(),
        _ => 0,
    };
    own + plan
        .children()
        .into_iter()
        .map(embedded_rows)
        .sum::<usize>()
}

/// A term in an atom: a named variable, a constant, or a wildcard.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Var(String),
    Const(Value),
    /// Anonymous variable `_`: matches anything, binds nothing. Only
    /// meaningful in body atoms.
    Any,
}

impl Term {
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }
}

/// `relation(t1, ..., tn)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    pub relation: String,
    pub terms: Vec<Term>,
}

impl Atom {
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }
}

/// A single comparison `a op b`.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpLit {
    pub left: Term,
    pub op: CmpOp,
    pub right: Term,
}

/// One literal in a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyLit {
    /// `R(t̄)` — joins the relation in.
    Pos(Atom),
    /// `¬R(t̄)` — anti-join; every variable must be bound elsewhere.
    Neg(Atom),
    /// `a op b` — selection; both sides must be bound or constant.
    Cmp(CmpLit),
    /// Disjunction of conjunctions of comparisons (DNF). This is what the
    /// nested conditions of Algorithm 1 lower to.
    Or(Vec<Vec<CmpLit>>),
}

/// `head :− body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<BodyLit>,
}

/// An ordered list of rules. Rules deriving the same head relation union
/// their results. Non-recursive programs use derived relations defined by
/// earlier rules only, and evaluate rule-at-a-time in order; programs
/// whose head-dependency graph has cycles are evaluated by stratified
/// semi-naive fixpoint iteration instead.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub rules: Vec<Rule>,
}

/// Each answer rule's optimized plan paired with its execution profile —
/// what a profiled program run (`run_*_analyze`) returns.
pub type AnalyzedPlans = Vec<(Plan, crate::obs::Profile)>;

/// Evaluates programs and rules against a database, holding materialized
/// derived relations.
///
/// By default every compiled rule plan is run through the cost-based
/// optimizer ([`crate::opt`]) before execution — this is the layer where
/// the paper delegates to "the database optimizer". Construct with
/// [`Evaluator::new_unoptimized`] to execute plans exactly as compiled
/// (the differential tests compare the two).
pub struct Evaluator<'a> {
    db: &'a Database,
    derived: HashMap<String, (usize, Vec<Row>)>,
    optimizer: Option<crate::opt::OptimizerOptions>,
    stats: Option<crate::opt::StatsCatalog>,
    /// Run rule plans through the materializing reference executor
    /// ([`crate::exec::execute_materialized`]) instead of the chunked one
    /// — only the differential suites set this.
    materialized: bool,
    /// Memory budget for the chunked executor's materialization points
    /// (see [`crate::exec::spill`]); unlimited by default. The
    /// materializing reference executor ignores it.
    spill: crate::exec::SpillOptions,
}

/// Pull every result row of `plan` through the chunked executor (or, with
/// `materialized`, the reference executor) into `sink`, in executor
/// order. The chunked path hands whole batches across the executor
/// boundary — the per-row call happens only inside this loop, not per
/// operator.
fn drive(
    db: &Database,
    plan: &Plan,
    materialized: bool,
    spill: &crate::exec::SpillOptions,
    mut sink: impl FnMut(Row),
) -> Result<()> {
    // Rows delivered are accumulated locally and added to the metrics
    // registry once per plan — no atomic traffic in the row loop.
    let mut emitted = 0u64;
    let mut sink = |row| {
        emitted += 1;
        sink(row)
    };
    let result = (|| {
        if materialized {
            for row in crate::exec::execute_materialized(db, plan)? {
                sink(row);
            }
            return Ok(());
        }
        // Drain through a reused scratch buffer so each chunk's backing
        // storage goes back to the executor's pool instead of being
        // reallocated per batch.
        let mut scratch: Vec<Row> = Vec::new();
        for chunk in crate::exec::Executor::with_spill(db, spill.clone()).open_chunks(plan)? {
            chunk?.drain_into(&mut scratch);
            for row in scratch.drain(..) {
                sink(row);
            }
        }
        Ok(())
    })();
    crate::obs::metrics().add(crate::obs::Metric::RowsEmitted, emitted);
    result
}

/// [`drive`] with per-operator profiling on: always runs the chunked
/// executor (profiles describe its operator tree) and returns the live
/// [`Profile`](crate::obs::Profile) alongside. The `EXPLAIN ANALYZE`
/// backend.
fn drive_profiled(
    db: &Database,
    plan: &Plan,
    spill: &crate::exec::SpillOptions,
    mut sink: impl FnMut(Row),
) -> Result<crate::obs::Profile> {
    let exec = crate::exec::Executor::with_spill(db, spill.clone());
    let (stream, profile) = exec.open_chunks_profiled(plan)?;
    let mut scratch: Vec<Row> = Vec::new();
    let mut emitted = 0u64;
    let result = (|| {
        for chunk in stream {
            chunk?.drain_into(&mut scratch);
            for row in scratch.drain(..) {
                emitted += 1;
                sink(row);
            }
        }
        Ok(())
    })();
    crate::obs::metrics().add(crate::obs::Metric::RowsEmitted, emitted);
    result.map(|()| profile)
}

/// Reserved name prefix for the per-round delta relations the
/// semi-naive evaluator publishes while iterating a recursive stratum.
const DELTA_PREFIX: &str = "__sn_delta__";

/// Dependency graph over a program's head relations: one node per head
/// (first-definition order), an edge from a head to every head relation
/// its rules' bodies read (positively or negatively).
pub(crate) struct HeadGraph {
    pub(crate) rels: Vec<String>,
    deps: Vec<Vec<usize>>,
}

pub(crate) fn head_graph(program: &Program) -> HeadGraph {
    let mut rels: Vec<String> = Vec::new();
    let mut idx: HashMap<&str, usize> = HashMap::new();
    for rule in &program.rules {
        if !idx.contains_key(rule.head.relation.as_str()) {
            idx.insert(rule.head.relation.as_str(), rels.len());
            rels.push(rule.head.relation.clone());
        }
    }
    let mut deps: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); rels.len()];
    for rule in &program.rules {
        let head = idx[rule.head.relation.as_str()];
        for lit in &rule.body {
            if let BodyLit::Pos(a) | BodyLit::Neg(a) = lit {
                if let Some(&dep) = idx.get(a.relation.as_str()) {
                    deps[head].insert(dep);
                }
            }
        }
    }
    HeadGraph {
        rels,
        deps: deps.into_iter().map(|s| s.into_iter().collect()).collect(),
    }
}

impl HeadGraph {
    /// Strongly connected components in dependency order: a component
    /// appears after every component it reads from, so evaluating the
    /// returned list front to back always finds dependencies
    /// materialized. Iterative Tarjan, deterministic.
    pub(crate) fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.rels.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            // Explicit call stack of (node, next-dependency cursor).
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&(v, cursor)) = call.last() {
                if cursor == 0 {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if cursor < self.deps[v].len() {
                    call.last_mut().expect("just peeked").1 += 1;
                    let w = self.deps[v][cursor];
                    if index[w] == usize::MAX {
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        comps.push(comp);
                    }
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        comps
    }

    /// Whether a component needs fixpoint iteration: more than one
    /// member, or a single member that reads itself.
    pub(crate) fn component_recursive(&self, comp: &[usize]) -> bool {
        comp.len() > 1 || self.deps[comp[0]].binary_search(&comp[0]).is_ok()
    }
}

/// Whether any head relation of `program` participates in a dependency
/// cycle (direct or mutual recursion). Recursive programs take the
/// semi-naive fixpoint path in [`Evaluator::run`] and are excluded from
/// plan caching, streaming plan collection, and `EXPLAIN`.
pub fn program_recursive(program: &Program) -> bool {
    let graph = head_graph(program);
    graph
        .sccs()
        .iter()
        .any(|comp| graph.component_recursive(comp))
}

impl<'a> Evaluator<'a> {
    pub fn new(db: &'a Database) -> Self {
        Evaluator {
            db,
            derived: HashMap::new(),
            optimizer: Some(crate::opt::OptimizerOptions::default()),
            stats: None,
            materialized: false,
            spill: crate::exec::SpillOptions::unlimited(),
        }
    }

    /// An evaluator that executes rule plans exactly as compiled.
    pub fn new_unoptimized(db: &'a Database) -> Self {
        Evaluator {
            optimizer: None,
            ..Evaluator::new(db)
        }
    }

    /// An evaluator with explicit optimizer options.
    pub fn with_optimizer(db: &'a Database, opts: crate::opt::OptimizerOptions) -> Self {
        Evaluator {
            optimizer: Some(opts),
            ..Evaluator::new(db)
        }
    }

    /// Evaluate rule plans with the materializing executor
    /// ([`crate::exec::execute_materialized`]) instead of the streaming
    /// one. The executors are differentially tested to agree; this
    /// switch exists so higher layers can run both sides of that
    /// comparison.
    pub fn use_materializing_executor(mut self) -> Self {
        self.materialized = true;
        self
    }

    /// Bound the memory the chunked executor's materialization points
    /// (hash-join builds, aggregates, sorts, distincts) may hold per
    /// query; past the budget they spill to disk (grace hash join,
    /// external merge sort — see [`crate::exec::spill`]). `None` (the
    /// default) keeps every materialization fully in memory.
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.spill.budget = budget;
        self
    }

    /// Replace the full spill options (budget + run-file directory).
    pub fn with_spill_options(mut self, spill: crate::exec::SpillOptions) -> Self {
        self.spill = spill;
        self
    }

    /// Seed this evaluator with a pre-built statistics snapshot (e.g. one
    /// cached across queries by the owner of the database). A stale seed is
    /// fine — it is version-checked and refreshed incrementally on use.
    pub fn seed_stats(mut self, catalog: crate::opt::StatsCatalog) -> Self {
        self.stats = Some(catalog);
        self
    }

    /// Refresh the statistics snapshot for this evaluator's database when
    /// the database has mutated since the last use.
    fn refresh_stats(&mut self) {
        match &mut self.stats {
            Some(s) => s.refresh(self.db),
            None => self.stats = Some(crate::opt::StatsCatalog::snapshot(self.db)),
        }
    }

    /// Compile a rule and run it through the optimizer (when enabled).
    pub fn plan_rule(&mut self, rule: &Rule) -> Result<Plan> {
        let plan = self.compile_rule(rule)?;
        match self.optimizer.clone() {
            Some(opts) => {
                self.refresh_stats();
                let stats = self.stats.as_ref().expect("just refreshed");
                crate::opt::optimize_with_stats(self.db, stats, plan, &opts)
            }
            None => Ok(plan),
        }
    }

    /// Render the optimized physical plan of each rule (the program-level
    /// `EXPLAIN`).
    ///
    /// Intermediate heads are materialized so later rules compile against
    /// real derived relations (their sizes drive the cost estimates shown);
    /// the final rule — the query answer — is planned but **not** executed.
    /// Rules produced by the magic-sets rewrite carry a deterministic
    /// `[magic … adorn=…]` tag after their header line. Recursive
    /// programs have no static rule-at-a-time plan and are rejected.
    pub fn explain_program(&mut self, program: &Program) -> Result<String> {
        if program_recursive(program) {
            return Err(StorageError::DatalogError(
                "cannot EXPLAIN a recursive program (plans vary per fixpoint round)".into(),
            ));
        }
        let mut out = String::new();
        for (i, rule) in program.rules.iter().enumerate() {
            self.check_nonrecursive(rule)?;
            out.push_str(&format!("-- {rule}"));
            if let Some(tag) = crate::opt::magic::rule_tag(rule) {
                out.push_str(&tag);
            }
            out.push('\n');
            let plan = self.plan_rule(rule)?;
            self.refresh_stats();
            let stats = self.stats.as_ref().expect("just refreshed");
            out.push_str(&crate::opt::render(
                self.db,
                stats,
                &plan,
                self.spill.budget,
            ));
            if i + 1 < program.rules.len() {
                let rows = execute(self.db, &plan)?;
                self.materialize_head(rule, rows)?;
            }
        }
        Ok(out)
    }

    /// Render the `EXPLAIN ANALYZE` report for plans profiled by
    /// [`Evaluator::run_collecting_analyze`] /
    /// [`Evaluator::run_cached_analyze`]: every operator line carries its
    /// estimate **and** what actually happened (rows, chunks, wall time,
    /// kernel-vs-fallback rows, spill traffic). Call after the run so the
    /// profiles are final.
    pub fn render_analyze_report(&mut self, profiled: &[(Plan, crate::obs::Profile)]) -> String {
        self.refresh_stats();
        let stats = self.stats.as_ref().expect("just refreshed");
        let mut out = String::new();
        for (plan, profile) in profiled {
            out.push_str(&crate::opt::render_analyze(
                self.db,
                stats,
                plan,
                profile,
                self.spill.budget,
            ));
        }
        out
    }

    /// Fold `rows` into the head relation's derived entry, enforcing that
    /// every rule deriving the same head agrees on its arity.
    fn materialize_head(&mut self, rule: &Rule, rows: Vec<Row>) -> Result<()> {
        let entry = self.head_entry(rule)?;
        entry.1.extend(rows);
        dedup_rows(&mut entry.1);
        Ok(())
    }

    /// The derived entry a rule's head feeds, created on first use and
    /// checked for a consistent arity across rules.
    fn head_entry(&mut self, rule: &Rule) -> Result<&mut (usize, Vec<Row>)> {
        let arity = rule.head.terms.len();
        let entry = self
            .derived
            .entry(rule.head.relation.clone())
            .or_insert_with(|| (arity, Vec::new()));
        if entry.0 != arity {
            return Err(StorageError::DatalogError(format!(
                "relation `{}` derived with conflicting arities {} and {arity}",
                rule.head.relation, entry.0
            )));
        }
        Ok(entry)
    }

    /// Evaluate `plan` and fold its rows into the rule's head relation,
    /// deduplicating incrementally. On the (default) chunked path whole
    /// batches flow from the executor straight into the derived entry —
    /// no per-rule intermediate `Vec`, and no per-row virtual call at
    /// the executor boundary.
    fn consume_into_head(&mut self, rule: &Rule, plan: &Plan) -> Result<()> {
        let db = self.db;
        let materialized = self.materialized;
        let spill = self.spill.clone();
        let entry = self.head_entry(rule)?;
        let mut seen: HashSet<Row> = entry.1.iter().cloned().collect();
        drive(db, plan, materialized, &spill, |row| {
            if seen.insert(row.clone()) {
                entry.1.push(row);
            }
        })
    }

    /// [`Evaluator::consume_into_head`] with per-operator profiling on
    /// (chunked executor only — profiles describe its operator tree).
    fn consume_into_head_profiled(
        &mut self,
        rule: &Rule,
        plan: &Plan,
    ) -> Result<crate::obs::Profile> {
        let db = self.db;
        let spill = self.spill.clone();
        let entry = self.head_entry(rule)?;
        let mut seen: HashSet<Row> = entry.1.iter().cloned().collect();
        drive_profiled(db, plan, &spill, |row| {
            if seen.insert(row.clone()) {
                entry.1.push(row);
            }
        })
    }

    /// Register a pre-materialized relation (e.g. a literal temp table).
    pub fn define(&mut self, name: impl Into<String>, arity: usize, rows: Vec<Row>) {
        self.derived.insert(name.into(), (arity, rows));
    }

    /// Materialized rows of a derived relation.
    pub fn relation(&self, name: &str) -> Option<&[Row]> {
        self.derived.get(name).map(|(_, rows)| rows.as_slice())
    }

    /// Run every rule, materializing head relations. Returns the name of
    /// the last head (by convention the query answer). Non-recursive
    /// programs evaluate rule-at-a-time in definition order, rows
    /// streaming from the executor into the derived relations — exactly
    /// the pre-recursion engine, byte for byte. Programs whose
    /// head-dependency graph has cycles switch to stratified semi-naive
    /// fixpoint evaluation (`Evaluator::run_recursive`).
    pub fn run(&mut self, program: &Program) -> Result<Option<String>> {
        let graph = head_graph(program);
        let comps = graph.sccs();
        if comps.iter().any(|c| graph.component_recursive(c)) {
            return self.run_recursive(program, &graph, &comps);
        }
        let mut last = None;
        for rule in &program.rules {
            self.check_nonrecursive(rule)?;
            let plan = self.plan_rule(rule)?;
            self.consume_into_head(rule, &plan)?;
            last = Some(rule.head.relation.clone());
        }
        Ok(last)
    }

    /// Stratified semi-naive evaluation for recursive programs.
    ///
    /// Head relations are grouped into strongly connected components of
    /// the dependency graph and evaluated in dependency order (a
    /// component runs only after everything it reads from). Rules in a
    /// non-recursive component run exactly like [`Evaluator::run`]'s
    /// loop. A recursive component iterates to a fixpoint: round zero
    /// evaluates each member rule in full, and every later round
    /// evaluates, per rule and per positive in-component body atom, a
    /// variant that reads that one atom from the previous round's delta
    /// relation — so per-round work tracks newly derived tuples, not the
    /// accumulated relation. Negation on a relation inside its own
    /// component is not stratifiable and is rejected.
    fn run_recursive(
        &mut self,
        program: &Program,
        graph: &HeadGraph,
        comps: &[Vec<usize>],
    ) -> Result<Option<String>> {
        for rule in &program.rules {
            if self.db.has_table(&rule.head.relation) {
                return Err(StorageError::DatalogError(format!(
                    "cannot derive into base table `{}`",
                    rule.head.relation
                )));
            }
            if rule.head.relation.starts_with(DELTA_PREFIX) {
                return Err(StorageError::DatalogError(format!(
                    "relation name `{}` uses the reserved semi-naive delta prefix",
                    rule.head.relation
                )));
            }
        }
        for comp in comps {
            let members: HashSet<&str> = comp.iter().map(|&i| graph.rels[i].as_str()).collect();
            let rules: Vec<&Rule> = program
                .rules
                .iter()
                .filter(|r| members.contains(r.head.relation.as_str()))
                .collect();
            if graph.component_recursive(comp) {
                self.eval_stratum(&rules, &members)?;
            } else {
                for rule in rules {
                    let plan = self.plan_rule(rule)?;
                    self.consume_into_head(rule, &plan)?;
                }
            }
        }
        Ok(program.rules.last().map(|r| r.head.relation.clone()))
    }

    /// Fixpoint-evaluate one recursive component (see
    /// [`Evaluator::run_recursive`] for the semi-naive scheme).
    fn eval_stratum(&mut self, rules: &[&Rule], members: &HashSet<&str>) -> Result<()> {
        for rule in rules {
            for lit in &rule.body {
                if let BodyLit::Neg(a) = lit {
                    if members.contains(a.relation.as_str()) {
                        // BD002, naming the whole offending cycle — the
                        // same diagnostic `sema::lint_program` reports
                        // statically.
                        let cycle: Vec<&str> = members.iter().copied().collect();
                        return Err(StorageError::DatalogError(
                            crate::sema::unstratifiable(&rule.head.relation, &a.relation, &cycle)
                                .with_context(format!("rule `{rule}`"))
                                .code_message(),
                        ));
                    }
                }
            }
        }
        // Create every member relation (empty if nothing pre-registered)
        // before any rule reads a fellow member, and snapshot the
        // pre-existing rows as the dedup baseline. Pre-existing rows feed
        // derivations through round zero's full evaluation.
        let mut seen: HashMap<String, HashSet<Row>> = HashMap::new();
        for rule in rules {
            let entry = self.head_entry(rule)?;
            seen.entry(rule.head.relation.clone())
                .or_insert_with(|| entry.1.iter().cloned().collect());
        }
        // Round zero: full evaluation of every member rule.
        let mut candidates: Vec<(String, Vec<Row>)> = Vec::new();
        for rule in rules {
            let rows = self.eval_rule_rows(rule)?;
            candidates.push((rule.head.relation.clone(), rows));
        }
        let mut delta = self.absorb_round(members, candidates, &mut seen);
        while delta.values().any(|rows| !rows.is_empty()) {
            // Publish this round's deltas as reserved derived relations.
            for (rel, rows) in &delta {
                let arity = self.derived.get(rel).expect("member created above").0;
                self.define(format!("{DELTA_PREFIX}{rel}"), arity, rows.clone());
            }
            let mut candidates: Vec<(String, Vec<Row>)> = Vec::new();
            for rule in rules {
                for pos in 0..rule.body.len() {
                    let rel = match &rule.body[pos] {
                        BodyLit::Pos(a) if members.contains(a.relation.as_str()) => {
                            a.relation.clone()
                        }
                        _ => continue,
                    };
                    if delta[&rel].is_empty() {
                        continue;
                    }
                    let mut variant = (*rule).clone();
                    if let BodyLit::Pos(a) = &mut variant.body[pos] {
                        a.relation = format!("{DELTA_PREFIX}{}", a.relation);
                    }
                    let rows = self.eval_rule_rows(&variant)?;
                    candidates.push((rule.head.relation.clone(), rows));
                }
            }
            delta = self.absorb_round(members, candidates, &mut seen);
        }
        let stale: Vec<String> = self
            .derived
            .keys()
            .filter(|name| name.starts_with(DELTA_PREFIX))
            .cloned()
            .collect();
        for name in stale {
            self.derived.remove(&name);
        }
        Ok(())
    }

    /// Fold one fixpoint round's candidate rows into the derived
    /// relations, returning per-relation vectors of the genuinely new
    /// rows (the next round's deltas).
    fn absorb_round(
        &mut self,
        members: &HashSet<&str>,
        candidates: Vec<(String, Vec<Row>)>,
        seen: &mut HashMap<String, HashSet<Row>>,
    ) -> HashMap<String, Vec<Row>> {
        let mut delta: HashMap<String, Vec<Row>> = members
            .iter()
            .map(|rel| ((*rel).to_string(), Vec::new()))
            .collect();
        for (rel, rows) in candidates {
            let seen_rel = seen.get_mut(&rel).expect("member seeded in eval_stratum");
            let entry = self.derived.get_mut(&rel).expect("member created above");
            let fresh = delta.get_mut(&rel).expect("delta seeded per member");
            for row in rows {
                if seen_rel.insert(row.clone()) {
                    entry.1.push(row.clone());
                    fresh.push(row);
                }
            }
        }
        delta
    }

    /// Plan and execute one rule, returning its rows in executor order
    /// (head-level deduplication is the caller's job).
    fn eval_rule_rows(&mut self, rule: &Rule) -> Result<Vec<Row>> {
        let plan = self.plan_rule(rule)?;
        let mut rows = Vec::new();
        drive(self.db, &plan, self.materialized, &self.spill, |row| {
            rows.push(row)
        })?;
        Ok(rows)
    }

    /// Like [`Evaluator::run`], but consulting `cache` for the optimized
    /// answer plans of the program: a hit (same program text, same table
    /// versions) skips compilation, safety checks, every optimizer
    /// rewrite pass, and the re-derivation of intermediate relations —
    /// **on a hit only the final head relation is materialized**. Falls
    /// back to the uncached path when this evaluator carries
    /// pre-registered derived relations (their rows are outside the
    /// cache key) or has the optimizer disabled.
    ///
    /// This convenience holds no lock; callers sharing a `PlanCache`
    /// behind a mutex should instead do the brief
    /// [`PlanCache::lookup`]/[`PlanCache::store`] calls under the lock
    /// and run [`Evaluator::run_cached_plans`] /
    /// [`Evaluator::run_collecting_plans`] outside it.
    pub fn run_cached(
        &mut self,
        program: &Program,
        cache: &mut PlanCache,
    ) -> Result<Option<String>> {
        if !self.derived.is_empty()
            || self.optimizer.is_none()
            || program_recursive(program)
            || PlanCache::program_reads_virtual(self.db, program)
        {
            return self.run(program);
        }
        let key = program.to_string();
        let versions = PlanCache::read_versions(self.db, program);
        if let Some(plans) = cache.lookup(&key, &versions) {
            return self.run_cached_plans(program, &plans);
        }
        let (last, plans) = self.run_collecting_plans(program)?;
        cache.store(key, versions, plans);
        Ok(last)
    }

    /// Execute cached answer plans (from [`PlanCache::lookup`]) for
    /// `program`: only the rules deriving the final head run — their
    /// plans embed every derived relation they read as `Values` — and
    /// only that head is materialized. Falls back to [`Evaluator::run`]
    /// if the plan list does not line up with the program (a stale or
    /// foreign cache entry).
    pub fn run_cached_plans(
        &mut self,
        program: &Program,
        plans: &[Plan],
    ) -> Result<Option<String>> {
        let Some(last) = program.rules.last() else {
            return Ok(None);
        };
        let answer_rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| r.head.relation == last.head.relation)
            .collect();
        if answer_rules.len() != plans.len() {
            return self.run(program);
        }
        for (rule, plan) in answer_rules.into_iter().zip(plans) {
            self.consume_into_head(rule, plan)?;
        }
        Ok(Some(last.head.relation.clone()))
    }

    /// Run the whole program (exactly like [`Evaluator::run`]) and also
    /// return the optimized plans of the rules deriving the final head,
    /// for a later [`PlanCache::store`].
    pub fn run_collecting_plans(
        &mut self,
        program: &Program,
    ) -> Result<(Option<String>, Vec<Plan>)> {
        if program_recursive(program) {
            // Fixpoint rounds have no fixed answer-plan list to cache.
            let last = self.run(program)?;
            return Ok((last, Vec::new()));
        }
        let mut plans: Vec<(String, Plan)> = Vec::with_capacity(program.rules.len());
        let mut last = None;
        for rule in &program.rules {
            self.check_nonrecursive(rule)?;
            let plan = self.plan_rule(rule)?;
            self.consume_into_head(rule, &plan)?;
            plans.push((rule.head.relation.clone(), plan));
            last = Some(rule.head.relation.clone());
        }
        let answer_plans = match &last {
            Some(head) => plans
                .into_iter()
                .filter(|(h, _)| h == head)
                .map(|(_, p)| p)
                .collect(),
            None => Vec::new(),
        };
        Ok((last, answer_plans))
    }

    /// Run the whole program (exactly like [`Evaluator::run`]), profiling
    /// the rules that derive the final head: returns the last head name
    /// plus each answer rule's optimized plan and execution profile —
    /// the `EXPLAIN ANALYZE` backend. The answer plans are the same list
    /// [`Evaluator::run_collecting_plans`] would hand to
    /// [`PlanCache::store`].
    pub fn run_collecting_analyze(
        &mut self,
        program: &Program,
    ) -> Result<(Option<String>, AnalyzedPlans)> {
        if program_recursive(program) {
            // Per-round variants make per-rule profiles ill-defined.
            let last = self.run(program)?;
            return Ok((last, Vec::new()));
        }
        let answer_head = program.rules.last().map(|r| r.head.relation.clone());
        let mut profiled = Vec::new();
        let mut last = None;
        for rule in &program.rules {
            self.check_nonrecursive(rule)?;
            let plan = self.plan_rule(rule)?;
            if Some(&rule.head.relation) == answer_head.as_ref() {
                let profile = self.consume_into_head_profiled(rule, &plan)?;
                profiled.push((plan, profile));
            } else {
                self.consume_into_head(rule, &plan)?;
            }
            last = Some(rule.head.relation.clone());
        }
        Ok((last, profiled))
    }

    /// Execute cached answer plans (like [`Evaluator::run_cached_plans`])
    /// with profiling on, returning each plan's execution profile. Falls
    /// back to [`Evaluator::run_collecting_analyze`] if the plan list
    /// does not line up with the program.
    pub fn run_cached_analyze(
        &mut self,
        program: &Program,
        plans: &[Plan],
    ) -> Result<(Option<String>, AnalyzedPlans)> {
        let Some(last) = program.rules.last() else {
            return Ok((None, Vec::new()));
        };
        let answer_rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| r.head.relation == last.head.relation)
            .collect();
        if answer_rules.len() != plans.len() {
            return self.run_collecting_analyze(program);
        }
        let mut profiled = Vec::with_capacity(plans.len());
        for (rule, plan) in answer_rules.into_iter().zip(plans) {
            let profile = self.consume_into_head_profiled(rule, plan)?;
            profiled.push((plan.clone(), profile));
        }
        Ok((Some(last.head.relation.clone()), profiled))
    }

    /// Run every rule, materializing intermediate heads, but **stream**
    /// the final head's rows into `sink` as the executor produces them —
    /// the query answer is never collected into a `Vec` here. Rows
    /// derived by earlier rules sharing the final rule's head are
    /// emitted first (they are part of the answer, exactly as in
    /// [`Evaluator::run`]); the final rule's own rows then stream,
    /// deduplicated against them. Rows arrive in executor order,
    /// unsorted.
    pub fn run_streaming(&mut self, program: &Program, sink: impl FnMut(Row)) -> Result<()> {
        self.run_streaming_collecting_plans(program, sink)
            .map(|_| ())
    }

    /// [`Evaluator::run_streaming`], additionally returning the optimized
    /// plans of the rules deriving the final head for a later
    /// [`PlanCache::store`] (the streaming counterpart of
    /// [`Evaluator::run_collecting_plans`]).
    pub fn run_streaming_collecting_plans(
        &mut self,
        program: &Program,
        mut sink: impl FnMut(Row),
    ) -> Result<Vec<Plan>> {
        let Some((last, init)) = program.rules.split_last() else {
            return Ok(Vec::new());
        };
        if program_recursive(program) {
            // No single streaming answer plan exists: evaluate the
            // fixpoint fully, then emit the final head's rows.
            self.run(program)?;
            if let Some((_, rows)) = self.derived.get(&last.head.relation) {
                for row in rows.clone() {
                    sink(row);
                }
            }
            return Ok(Vec::new());
        }
        let mut answer_plans: Vec<Plan> = Vec::new();
        for rule in init {
            self.check_nonrecursive(rule)?;
            let plan = self.plan_rule(rule)?;
            self.consume_into_head(rule, &plan)?;
            if rule.head.relation == last.head.relation {
                answer_plans.push(plan);
            }
        }
        self.check_nonrecursive(last)?;
        let plan = self.plan_rule(last)?;
        let mut seen: HashSet<Row> = match self.derived.get(&last.head.relation) {
            Some((arity, rows)) => {
                if *arity != last.head.terms.len() {
                    return Err(StorageError::DatalogError(format!(
                        "relation `{}` derived with conflicting arities {} and {}",
                        last.head.relation,
                        arity,
                        last.head.terms.len()
                    )));
                }
                // Earlier rules already derived (deduplicated) answer
                // rows: they belong to the streamed result.
                for row in rows {
                    sink(row.clone());
                }
                rows.iter().cloned().collect()
            }
            None => HashSet::new(),
        };
        drive(self.db, &plan, self.materialized, &self.spill, |row| {
            if seen.insert(row.clone()) {
                sink(row);
            }
        })?;
        answer_plans.push(plan);
        Ok(answer_plans)
    }

    /// Stream cached answer plans (from [`PlanCache::lookup`]) into
    /// `sink`: nothing but the final head's rows is computed — the
    /// cached plans embed every derived relation they read — and the
    /// answer is never collected. Rows are deduplicated across the
    /// plans. Falls back to [`Evaluator::run_streaming`] if the plan
    /// list does not line up with the program.
    pub fn stream_cached_plans(
        &mut self,
        program: &Program,
        plans: &[Plan],
        mut sink: impl FnMut(Row),
    ) -> Result<()> {
        let Some(last) = program.rules.last() else {
            return Ok(());
        };
        let n_answer = program
            .rules
            .iter()
            .filter(|r| r.head.relation == last.head.relation)
            .count();
        if n_answer != plans.len() {
            return self.run_streaming(program, sink);
        }
        let mut seen: HashSet<Row> = HashSet::new();
        for plan in plans {
            drive(self.db, plan, self.materialized, &self.spill, |row| {
                if seen.insert(row.clone()) {
                    sink(row);
                }
            })?;
        }
        Ok(())
    }

    fn check_nonrecursive(&self, rule: &Rule) -> Result<()> {
        for lit in &rule.body {
            if let BodyLit::Pos(a) | BodyLit::Neg(a) = lit {
                if a.relation == rule.head.relation {
                    return Err(StorageError::DatalogError(format!(
                        "rule for `{}` references its own head (recursion is not supported)",
                        a.relation
                    )));
                }
            }
        }
        if self.db.has_table(&rule.head.relation) {
            return Err(StorageError::DatalogError(format!(
                "cannot derive into base table `{}`",
                rule.head.relation
            )));
        }
        if self.db.is_virtual(&rule.head.relation) {
            return Err(StorageError::ReservedName(
                crate::sema::Diagnostic::error(
                    crate::sema::codes::RESERVED_NAME,
                    format!("cannot derive into system table `{}`", rule.head.relation),
                )
                .code_message(),
            ));
        }
        Ok(())
    }

    /// Evaluate a single rule to its (deduplicated) head rows.
    pub fn eval_rule(&self, rule: &Rule) -> Result<Vec<Row>> {
        let mut plan = self.compile_rule(rule)?;
        if let Some(opts) = &self.optimizer {
            plan = crate::opt::optimize_with(self.db, plan, opts)?;
        }
        let mut rows = Vec::new();
        drive(self.db, &plan, self.materialized, &self.spill, |row| {
            rows.push(row)
        })?;
        dedup_rows(&mut rows);
        Ok(rows)
    }

    /// Compile a rule into a plan producing the head projection.
    pub fn compile_rule(&self, rule: &Rule) -> Result<Plan> {
        let mut acc = Plan::unit();
        let mut acc_arity: usize = 0;
        let mut bind: HashMap<String, usize> = HashMap::new();

        // Deferred literals: applied as soon as all their variables bind.
        let mut pending: Vec<&BodyLit> = Vec::new();

        let positives: Vec<&Atom> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                BodyLit::Pos(a) => Some(a),
                _ => None,
            })
            .collect();

        for lit in &rule.body {
            match lit {
                BodyLit::Pos(_) => {}
                other => pending.push(other),
            }
        }

        for atom in positives {
            let (src, src_arity) = self.atom_source(atom)?;
            // Intra-atom constraints: constants and repeated variables.
            let mut local_preds: Vec<Expr> = Vec::new();
            let mut first_seen: HashMap<&str, usize> = HashMap::new();
            let mut joins: Vec<(usize, usize)> = Vec::new();
            let mut new_binds: Vec<(String, usize)> = Vec::new();
            for (pos, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(v) => local_preds.push(Expr::col_eq_lit(pos, v.clone())),
                    Term::Any => {}
                    Term::Var(name) => {
                        if let Some(&prev) = first_seen.get(name.as_str()) {
                            local_preds.push(Expr::col_eq_col(prev, pos));
                        } else {
                            first_seen.insert(name, pos);
                            if let Some(&acc_col) = bind.get(name) {
                                joins.push((acc_col, pos));
                            } else {
                                new_binds.push((name.clone(), acc_arity + pos));
                            }
                        }
                    }
                }
            }
            let src = if local_preds.is_empty() {
                src
            } else {
                src.select(Expr::and(local_preds))
            };
            acc = acc.join(src, joins);
            acc_arity += src_arity;
            for (name, col) in new_binds {
                bind.insert(name, col);
            }
            self.apply_ready(&mut acc, &bind, &mut pending)?;
        }

        // Anything still pending must now be applicable (negated atoms and
        // comparisons whose variables never bound are unsafe).
        self.apply_ready(&mut acc, &bind, &mut pending)?;
        if let Some(stuck) = pending.first() {
            return Err(StorageError::DatalogError(format!(
                "unsafe rule: literal {stuck:?} has variables with no positive binding"
            )));
        }

        // Head projection.
        let mut exprs = Vec::with_capacity(rule.head.terms.len());
        for term in &rule.head.terms {
            match term {
                Term::Var(name) => {
                    let col = bind.get(name).ok_or_else(|| {
                        StorageError::DatalogError(format!(
                            "head variable `{name}` is not bound in the body"
                        ))
                    })?;
                    exprs.push(Expr::Col(*col));
                }
                Term::Const(v) => exprs.push(Expr::Lit(v.clone())),
                Term::Any => {
                    return Err(StorageError::DatalogError(
                        "wildcard `_` cannot appear in a rule head".into(),
                    ))
                }
            }
        }
        Ok(acc.project(exprs).distinct())
    }

    /// Apply every pending literal whose variables are all bound.
    fn apply_ready(
        &self,
        acc: &mut Plan,
        bind: &HashMap<String, usize>,
        pending: &mut Vec<&BodyLit>,
    ) -> Result<()> {
        let mut i = 0;
        while i < pending.len() {
            let lit = pending[i];
            if self.lit_ready(lit, bind) {
                let taken = pending.remove(i);
                let next = std::mem::replace(acc, Plan::unit());
                *acc = self.apply_lit(next, taken, bind)?;
                // Restart: applying one literal never unbinds others, but
                // keeps the scan simple.
                i = 0;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    fn lit_ready(&self, lit: &BodyLit, bind: &HashMap<String, usize>) -> bool {
        let term_ready = |t: &Term| match t {
            Term::Var(n) => bind.contains_key(n),
            Term::Const(_) | Term::Any => true,
        };
        match lit {
            BodyLit::Pos(_) => false,
            BodyLit::Neg(a) => a.terms.iter().all(term_ready),
            BodyLit::Cmp(c) => term_ready(&c.left) && term_ready(&c.right),
            BodyLit::Or(disjuncts) => disjuncts
                .iter()
                .flatten()
                .all(|c| term_ready(&c.left) && term_ready(&c.right)),
        }
    }

    fn apply_lit(&self, acc: Plan, lit: &BodyLit, bind: &HashMap<String, usize>) -> Result<Plan> {
        match lit {
            BodyLit::Pos(_) => unreachable!("positive atoms are joined, not applied"),
            BodyLit::Cmp(c) => {
                let e = self.cmp_expr(c, bind, 0)?;
                Ok(acc.select(e))
            }
            BodyLit::Or(disjuncts) => {
                let mut parts = Vec::with_capacity(disjuncts.len());
                for conj in disjuncts {
                    let mut es = Vec::with_capacity(conj.len());
                    for c in conj {
                        es.push(self.cmp_expr(c, bind, 0)?);
                    }
                    parts.push(Expr::and(es));
                }
                Ok(acc.select(Expr::or(parts)))
            }
            BodyLit::Neg(atom) => {
                let (src, _src_arity) = self.atom_source(atom)?;
                let mut local_preds: Vec<Expr> = Vec::new();
                let mut joins: Vec<(usize, usize)> = Vec::new();
                let mut first_seen: HashMap<&str, usize> = HashMap::new();
                for (pos, term) in atom.terms.iter().enumerate() {
                    match term {
                        Term::Const(v) => local_preds.push(Expr::col_eq_lit(pos, v.clone())),
                        Term::Any => {}
                        Term::Var(name) => {
                            if let Some(&prev) = first_seen.get(name.as_str()) {
                                local_preds.push(Expr::col_eq_col(prev, pos));
                            } else {
                                first_seen.insert(name, pos);
                                let acc_col = bind[name.as_str()];
                                joins.push((acc_col, pos));
                            }
                        }
                    }
                }
                let src = if local_preds.is_empty() {
                    src
                } else {
                    src.select(Expr::and(local_preds))
                };
                Ok(acc.anti_join(src, joins))
            }
        }
    }

    /// Comparison over bound columns/constants. `offset` shifts column
    /// positions (unused today, kept for joined-row contexts).
    fn cmp_expr(&self, c: &CmpLit, bind: &HashMap<String, usize>, offset: usize) -> Result<Expr> {
        let side = |t: &Term| -> Result<Expr> {
            match t {
                Term::Var(n) => {
                    let col = bind.get(n).ok_or_else(|| {
                        StorageError::DatalogError(format!("comparison variable `{n}` unbound"))
                    })?;
                    Ok(Expr::Col(col + offset))
                }
                Term::Const(v) => Ok(Expr::Lit(v.clone())),
                Term::Any => Err(StorageError::DatalogError(
                    "wildcard `_` cannot appear in a comparison".into(),
                )),
            }
        };
        Ok(Expr::cmp(c.op, side(&c.left)?, side(&c.right)?))
    }

    /// Plan + arity for a body atom's relation (base table or derived).
    fn atom_source(&self, atom: &Atom) -> Result<(Plan, usize)> {
        if let Some((arity, rows)) = self.derived.get(&atom.relation) {
            if atom.terms.len() != *arity {
                return Err(StorageError::DatalogError(format!(
                    "atom `{}` has {} terms but relation has arity {arity}",
                    atom.relation,
                    atom.terms.len()
                )));
            }
            return Ok((
                Plan::Values {
                    arity: *arity,
                    rows: rows.clone(),
                },
                *arity,
            ));
        }
        let t = self.db.table(&atom.relation)?;
        let arity = t.schema().arity();
        if atom.terms.len() != arity {
            return Err(StorageError::DatalogError(format!(
                "atom `{}` has {} terms but table has arity {arity}",
                atom.relation,
                atom.terms.len()
            )));
        }
        Ok((Plan::scan(&atom.relation), arity))
    }
}

fn dedup_rows(rows: &mut Vec<Row>) {
    let mut seen = std::collections::HashSet::with_capacity(rows.len());
    rows.retain(|r| seen.insert(r.clone()));
}

/// Convenience: shorthand constructors for terms.
pub mod dsl {
    use super::*;

    pub fn v(name: &str) -> Term {
        Term::var(name)
    }

    pub fn c(value: impl Into<Value>) -> Term {
        Term::val(value)
    }

    pub fn any() -> Term {
        Term::Any
    }

    pub fn atom(rel: &str, terms: Vec<Term>) -> Atom {
        Atom::new(rel, terms)
    }

    pub fn pos(rel: &str, terms: Vec<Term>) -> BodyLit {
        BodyLit::Pos(atom(rel, terms))
    }

    pub fn neg(rel: &str, terms: Vec<Term>) -> BodyLit {
        BodyLit::Neg(atom(rel, terms))
    }

    pub fn cmp(left: Term, op: CmpOp, right: Term) -> BodyLit {
        BodyLit::Cmp(CmpLit { left, op, right })
    }

    pub fn rule(head_rel: &str, head_terms: Vec<Term>, body: Vec<BodyLit>) -> Rule {
        Rule {
            head: atom(head_rel, head_terms),
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;
    use crate::row;
    use crate::schema::TableSchema;

    /// Users/parent fixture: classic datalog examples.
    fn db() -> Database {
        let mut db = Database::new();
        let users = db
            .create_table(TableSchema::with_key("Users", &["uid", "name"]))
            .unwrap();
        users.insert(row![1, "Alice"]).unwrap();
        users.insert(row![2, "Bob"]).unwrap();
        users.insert(row![3, "Carol"]).unwrap();
        let e = db
            .create_table(TableSchema::keyless("E", &["w1", "u", "w2"]))
            .unwrap();
        e.insert(row![0, 1, 1]).unwrap();
        e.insert(row![0, 2, 2]).unwrap();
        e.insert(row![0, 3, 0]).unwrap();
        e.insert(row![1, 2, 2]).unwrap();
        e.insert(row![2, 1, 3]).unwrap();
        db
    }

    #[test]
    fn single_atom_rule() {
        let db = db();
        let ev = Evaluator::new(&db);
        let r = rule("Q", vec![v("n")], vec![pos("Users", vec![v("u"), v("n")])]);
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!["Alice"], row!["Bob"], row!["Carol"]]);
    }

    #[test]
    fn constants_select() {
        let db = db();
        let ev = Evaluator::new(&db);
        let r = rule(
            "Q",
            vec![v("u")],
            vec![pos("Users", vec![v("u"), c("Bob")])],
        );
        assert_eq!(ev.eval_rule(&r).unwrap(), vec![row![2]]);
    }

    #[test]
    fn join_via_shared_variable() {
        let db = db();
        let ev = Evaluator::new(&db);
        // Two-hop paths from world 0: E(0,u1,w), E(w,u2,w2)
        let r = rule(
            "Q",
            vec![v("u1"), v("u2"), v("w2")],
            vec![
                pos("E", vec![c(0), v("u1"), v("w")]),
                pos("E", vec![v("w"), v("u2"), v("w2")]),
            ],
        );
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        // From 0: (1→1),(2→2),(3→0). Hops: 1→(1,2,2); 2→(2,1,3); 0→ all three.
        assert_eq!(
            rows,
            vec![
                row![1, 2, 2], // via w=1
                row![2, 1, 3], // via w=2
                row![3, 1, 1], // via w=0
                row![3, 2, 2],
                row![3, 3, 0],
            ]
        );
    }

    #[test]
    fn repeated_variable_within_atom() {
        let db = db();
        let ev = Evaluator::new(&db);
        // Self-loops: E(w, u, w)
        let r = rule(
            "Q",
            vec![v("w")],
            vec![pos("E", vec![v("w"), any(), v("w")])],
        );
        assert_eq!(ev.eval_rule(&r).unwrap(), vec![row![0]]);
    }

    #[test]
    fn negated_atom() {
        let db = db();
        let ev = Evaluator::new(&db);
        // Users with no outgoing edge from world 1: E(1, u, _) misses u ∈ {1,3}.
        let r = rule(
            "Q",
            vec![v("u")],
            vec![
                pos("Users", vec![v("u"), any()]),
                neg("E", vec![c(1), v("u"), any()]),
            ],
        );
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row![1], row![3]]);
    }

    #[test]
    fn comparison_literals() {
        let db = db();
        let ev = Evaluator::new(&db);
        let r = rule(
            "Q",
            vec![v("u")],
            vec![
                pos("Users", vec![v("u"), any()]),
                cmp(v("u"), CmpOp::Gt, c(1)),
            ],
        );
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row![2], row![3]]);
    }

    #[test]
    fn disjunction_literal() {
        let db = db();
        let ev = Evaluator::new(&db);
        let r = rule(
            "Q",
            vec![v("n")],
            vec![
                pos("Users", vec![v("u"), v("n")]),
                BodyLit::Or(vec![
                    vec![CmpLit {
                        left: v("u"),
                        op: CmpOp::Eq,
                        right: c(1),
                    }],
                    vec![CmpLit {
                        left: v("n"),
                        op: CmpOp::Eq,
                        right: c("Carol"),
                    }],
                ]),
            ],
        );
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!["Alice"], row!["Carol"]]);
    }

    #[test]
    fn head_constants_and_duplicates_deduped() {
        let db = db();
        let ev = Evaluator::new(&db);
        let r = rule(
            "Q",
            vec![c("marker")],
            vec![pos("Users", vec![any(), any()])],
        );
        assert_eq!(ev.eval_rule(&r).unwrap(), vec![row!["marker"]]);
    }

    #[test]
    fn unsafe_rules_rejected() {
        let db = db();
        let ev = Evaluator::new(&db);
        // Head var never bound.
        let r = rule("Q", vec![v("x")], vec![pos("Users", vec![v("u"), any()])]);
        assert!(ev.eval_rule(&r).is_err());
        // Negated atom with unbound var.
        let r = rule(
            "Q",
            vec![v("u")],
            vec![
                pos("Users", vec![v("u"), any()]),
                neg("E", vec![v("w"), v("u"), any()]),
            ],
        );
        assert!(matches!(
            ev.eval_rule(&r),
            Err(StorageError::DatalogError(_))
        ));
        // Comparison with unbound var.
        let r = rule(
            "Q",
            vec![v("u")],
            vec![
                pos("Users", vec![v("u"), any()]),
                cmp(v("z"), CmpOp::Eq, c(1)),
            ],
        );
        assert!(ev.eval_rule(&r).is_err());
    }

    #[test]
    fn program_with_derived_relations() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![
                // Reach1(w) :- E(0, _, w)
                rule(
                    "Reach1",
                    vec![v("w")],
                    vec![pos("E", vec![c(0), any(), v("w")])],
                ),
                // Reach2(w) :- Reach1(x), E(x, _, w)
                rule(
                    "Reach2",
                    vec![v("w")],
                    vec![
                        pos("Reach1", vec![v("x")]),
                        pos("E", vec![v("x"), any(), v("w")]),
                    ],
                ),
            ],
        };
        let last = ev.run(&prog).unwrap();
        assert_eq!(last.as_deref(), Some("Reach2"));
        let mut r1 = ev.relation("Reach1").unwrap().to_vec();
        r1.sort();
        assert_eq!(r1, vec![row![0], row![1], row![2]]);
        let mut r2 = ev.relation("Reach2").unwrap().to_vec();
        r2.sort();
        assert_eq!(r2, vec![row![0], row![1], row![2], row![3]]);
    }

    #[test]
    fn recursion_evaluates_to_fixpoint() {
        let db = db();
        // A self-loop over an undefined-but-created head: fixpoint is
        // empty, and evaluation terminates instead of erroring.
        let mut ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![rule("R", vec![v("w")], vec![pos("R", vec![v("w")])])],
        };
        assert_eq!(ev.run(&prog).unwrap(), Some("R".to_string()));
        assert_eq!(ev.relation("R").unwrap(), &[] as &[Row]);
        // Transitive closure over E's (w1, u) edges: base edges 0→1,
        // 0→2, 0→3, 1→2, 2→1 plus the derived cycles (1,1) and (2,2).
        let mut ev = Evaluator::new(&db);
        let tc = Program {
            rules: vec![
                rule(
                    "TC",
                    vec![v("a"), v("b")],
                    vec![pos("E", vec![v("a"), v("b"), any()])],
                ),
                rule(
                    "TC",
                    vec![v("a"), v("c")],
                    vec![
                        pos("TC", vec![v("a"), v("b")]),
                        pos("E", vec![v("b"), v("c"), any()]),
                    ],
                ),
            ],
        };
        assert_eq!(ev.run(&tc).unwrap(), Some("TC".to_string()));
        let mut got = ev.relation("TC").unwrap().to_vec();
        got.sort();
        assert_eq!(
            got,
            vec![
                row![0, 1],
                row![0, 2],
                row![0, 3],
                row![1, 1],
                row![1, 2],
                row![2, 1],
                row![2, 2],
            ]
        );
    }

    #[test]
    fn recursive_negation_is_rejected_as_unstratifiable() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        // win(x) :- E(x, y, _), not win(y): negation through the head's
        // own recursive component.
        let prog = Program {
            rules: vec![rule(
                "Win",
                vec![v("x")],
                vec![
                    pos("E", vec![v("x"), v("y"), any()]),
                    neg("Win", vec![v("y")]),
                ],
            )],
        };
        let err = ev.run(&prog).unwrap_err();
        assert_eq!(err.code(), Some("BD002"), "{err}");
        assert!(err.to_string().contains("cycle: Win -> Win"), "{err}");
    }

    #[test]
    fn cannot_derive_into_base_table() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![rule(
                "Users",
                vec![v("u"), v("n")],
                vec![pos("E", vec![v("u"), v("n"), any()])],
            )],
        };
        assert!(ev.run(&prog).is_err());
    }

    #[test]
    fn manual_temp_tables() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        ev.define("T", 2, vec![row![1, "x"], row![2, "y"]]);
        let r = rule(
            "Q",
            vec![v("n"), v("tag")],
            vec![
                pos("Users", vec![v("u"), v("n")]),
                pos("T", vec![v("u"), v("tag")]),
            ],
        );
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!["Alice", "x"], row!["Bob", "y"]]);
    }

    #[test]
    fn optimized_and_unoptimized_agree() {
        let db = db();
        let rules = vec![
            rule(
                "Q",
                vec![v("u1"), v("u2"), v("w2")],
                vec![
                    pos("E", vec![c(0), v("u1"), v("w")]),
                    pos("E", vec![v("w"), v("u2"), v("w2")]),
                    pos("Users", vec![v("u1"), any()]),
                ],
            ),
            rule(
                "R",
                vec![v("u")],
                vec![
                    pos("Users", vec![v("u"), any()]),
                    neg("E", vec![c(1), v("u"), any()]),
                    cmp(v("u"), CmpOp::Gt, c(0)),
                ],
            ),
        ];
        for r in &rules {
            let optimized = Evaluator::new(&db);
            let plain = Evaluator::new_unoptimized(&db);
            let mut a = optimized.eval_rule(r).unwrap();
            let mut b = plain.eval_rule(r).unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "optimizer changed rule semantics for {r}");
        }
    }

    #[test]
    fn explain_program_renders_each_rule() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![
                rule(
                    "Reach1",
                    vec![v("w")],
                    vec![pos("E", vec![c(0), any(), v("w")])],
                ),
                rule(
                    "Reach2",
                    vec![v("w")],
                    vec![
                        pos("Reach1", vec![v("x")]),
                        pos("E", vec![v("x"), any(), v("w")]),
                    ],
                ),
            ],
        };
        let text = ev.explain_program(&prog).unwrap();
        assert!(text.contains("-- Reach1(w) :- E(0, _, w)."), "{text}");
        assert!(text.contains("Scan E"), "{text}");
        // Deterministic across evaluators.
        let mut ev2 = Evaluator::new(&db);
        assert_eq!(text, ev2.explain_program(&prog).unwrap());
    }

    #[test]
    fn explain_program_rejects_conflicting_head_arities() {
        let db = db();
        let prog = Program {
            rules: vec![
                rule("Q", vec![v("u")], vec![pos("Users", vec![v("u"), any()])]),
                rule(
                    "Q",
                    vec![v("u"), v("n")],
                    vec![pos("Users", vec![v("u"), v("n")])],
                ),
                // A third rule so the conflicting second rule is not last
                // (the final rule is planned but not executed).
                rule("Z", vec![v("x")], vec![pos("Q", vec![v("x")])]),
            ],
        };
        let mut ev = Evaluator::new(&db);
        assert!(matches!(
            ev.explain_program(&prog),
            Err(StorageError::DatalogError(_))
        ));
        let mut ev = Evaluator::new(&db);
        assert!(matches!(ev.run(&prog), Err(StorageError::DatalogError(_))));
    }

    #[test]
    fn arity_mismatch_detected() {
        let db = db();
        let ev = Evaluator::new(&db);
        let r = rule("Q", vec![v("u")], vec![pos("Users", vec![v("u")])]);
        assert!(matches!(
            ev.eval_rule(&r),
            Err(StorageError::DatalogError(_))
        ));
    }

    fn reach_program() -> Program {
        Program {
            rules: vec![
                rule(
                    "Reach1",
                    vec![v("w")],
                    vec![pos("E", vec![c(0), any(), v("w")])],
                ),
                rule(
                    "Reach2",
                    vec![v("w")],
                    vec![
                        pos("Reach1", vec![v("x")]),
                        pos("E", vec![v("x"), any(), v("w")]),
                    ],
                ),
            ],
        }
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_invalidates_on_mutation() {
        let mut db = db();
        let prog = reach_program();
        let mut cache = PlanCache::new();

        let mut ev = Evaluator::new(&db);
        ev.run_cached(&prog, &mut cache).unwrap();
        let mut first = ev.relation("Reach2").unwrap().to_vec();
        first.sort();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 1);

        // Same program, unmutated database: served from the cache, same
        // answer — and the intermediate relation is *not* re-derived
        // (the cached answer plan embeds it).
        let mut ev = Evaluator::new(&db);
        ev.run_cached(&prog, &mut cache).unwrap();
        let mut second = ev.relation("Reach2").unwrap().to_vec();
        second.sort();
        assert_eq!(cache.hits(), 1);
        assert_eq!(first, second);
        assert!(
            ev.relation("Reach1").is_none(),
            "cache hit must skip intermediate derivation"
        );

        // A mutation bumps a table version: the stale entry must not be
        // served, and the recomputed answer reflects the new row.
        db.table_mut("E").unwrap().insert(row![0, 1, 9]).unwrap();
        let mut ev = Evaluator::new(&db);
        ev.run_cached(&prog, &mut cache).unwrap();
        assert_eq!(cache.misses(), 2);
        let reach1 = ev.relation("Reach1").unwrap();
        assert!(reach1.contains(&row![9]), "{reach1:?}");

        // Against a reference evaluation without the cache.
        let mut plain = Evaluator::new(&db);
        plain.run(&prog).unwrap();
        let mut a = ev.relation("Reach2").unwrap().to_vec();
        let mut b = plain.relation("Reach2").unwrap().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn plan_cache_survives_mutations_of_unread_tables() {
        let mut db = db();
        let prog = reach_program(); // reads only E
        let mut cache = PlanCache::new();
        Evaluator::new(&db).run_cached(&prog, &mut cache).unwrap();
        assert_eq!(cache.misses(), 1);
        // Inserting into a table the program never reads must not void
        // the entry: the key covers the read set, not the whole catalog.
        db.table_mut("Users")
            .unwrap()
            .insert(row![9, "Zoe"])
            .unwrap();
        let mut ev = Evaluator::new(&db);
        ev.run_cached(&prog, &mut cache).unwrap();
        assert_eq!(cache.hits(), 1, "unrelated mutation evicted the plan");
        assert!(
            ev.relation("Reach1").is_none(),
            "hit must skip intermediate derivation"
        );
        // read_versions itself: only referenced base tables, sorted.
        let versions = PlanCache::read_versions(&db, &prog);
        assert_eq!(versions.len(), 1);
        assert_eq!(versions[0].0, "E");
    }

    #[test]
    fn row_layout_evaluator_matches_columnar() {
        // The same edges twice: as the base table `E`, which scans as
        // columnar windows, and as a relation defined on the evaluator,
        // which reaches the executor as row-major `Values` chunks.
        let db = db();
        let mut cols = Evaluator::new(&db);
        cols.run(&reach_program()).unwrap();

        let edges = execute(&db, &Plan::scan("E")).unwrap();
        let mut rows_ev = Evaluator::new(&db);
        rows_ev.define("ERows", 3, edges);
        let prog = Program {
            rules: vec![
                rule(
                    "Reach1",
                    vec![v("w")],
                    vec![pos("ERows", vec![c(0), any(), v("w")])],
                ),
                rule(
                    "Reach2",
                    vec![v("w")],
                    vec![
                        pos("Reach1", vec![v("x")]),
                        pos("ERows", vec![v("x"), any(), v("w")]),
                    ],
                ),
            ],
        };
        rows_ev.run(&prog).unwrap();

        let mut a = cols.relation("Reach2").unwrap().to_vec();
        let mut b = rows_ev.relation("Reach2").unwrap().to_vec();
        a.sort();
        b.sort();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn plan_cache_declines_predefined_relations() {
        let db = db();
        let mut cache = PlanCache::new();
        let prog = Program {
            rules: vec![rule("Q", vec![v("x")], vec![pos("T", vec![v("x")])])],
        };
        for rows in [vec![row![1]], vec![row![2]]] {
            let mut ev = Evaluator::new(&db);
            ev.define("T", 1, rows.clone());
            ev.run_cached(&prog, &mut cache).unwrap();
            // The evaluator carries out-of-program state: the cache must
            // not serve (or record) plans embedding it.
            assert_eq!(ev.relation("Q").unwrap(), rows.as_slice());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn plan_cache_evicts_fifo() {
        let db = db();
        let mut cache = PlanCache::new();
        for i in 0..(super::PLAN_CACHE_CAP + 8) as i64 {
            let prog = Program {
                rules: vec![rule(
                    "Q",
                    vec![v("u")],
                    vec![
                        pos("Users", vec![v("u"), any()]),
                        cmp(v("u"), CmpOp::Gt, c(i)),
                    ],
                )],
            };
            let mut ev = Evaluator::new(&db);
            ev.run_cached(&prog, &mut cache).unwrap();
        }
        assert_eq!(cache.len(), super::PLAN_CACHE_CAP);
    }

    #[test]
    fn run_streaming_matches_run() {
        let db = db();
        let prog = reach_program();
        let mut reference = Evaluator::new(&db);
        reference.run(&prog).unwrap();
        let mut want = reference.relation("Reach2").unwrap().to_vec();
        want.sort();

        let mut ev = Evaluator::new(&db);
        let mut got = Vec::new();
        ev.run_streaming(&prog, |row| got.push(row)).unwrap();
        got.sort();
        assert_eq!(got, want);

        // The final head is *not* materialized in the evaluator — that is
        // the point of the streaming path — but intermediates are.
        assert!(ev.relation("Reach2").is_none());
        assert!(ev.relation("Reach1").is_some());
    }

    #[test]
    fn run_streaming_unions_and_dedups_rules_with_same_head() {
        let db = db();
        // Both rules derive Q. Rule 1 contributes Alice (uid 1), which
        // rule 2 (uid > 1) does NOT re-derive: the streamed answer must
        // still include her — and Bob/Carol, re-derivable or not, only
        // once.
        let prog = Program {
            rules: vec![
                rule(
                    "Q",
                    vec![v("u")],
                    vec![pos("Users", vec![v("u"), c("Alice")])],
                ),
                rule(
                    "Q",
                    vec![v("u")],
                    vec![
                        pos("Users", vec![v("u"), any()]),
                        cmp(v("u"), CmpOp::Gt, c(1)),
                    ],
                ),
            ],
        };
        let mut reference = Evaluator::new(&db);
        reference.run(&prog).unwrap();
        let mut want = reference.relation("Q").unwrap().to_vec();
        want.sort();

        let mut ev = Evaluator::new(&db);
        let mut got = Vec::new();
        ev.run_streaming(&prog, |row| got.push(row)).unwrap();
        got.sort();
        assert_eq!(got, want);
        assert_eq!(got, vec![row![1], row![2], row![3]]);
    }

    #[test]
    fn streaming_cache_roundtrip_matches_run_streaming() {
        let db = db();
        let prog = reach_program();
        let mut cache = PlanCache::new();

        // Miss path: stream and record the answer plans.
        let mut ev = Evaluator::new(&db);
        let mut first = Vec::new();
        let plans = ev
            .run_streaming_collecting_plans(&prog, |row| first.push(row))
            .unwrap();
        cache.store(prog.to_string(), PlanCache::db_versions(&db), plans);
        first.sort();

        // Hit path: stream the cached plans — same rows, nothing but the
        // answer computed.
        let cached = cache
            .lookup(&prog.to_string(), &PlanCache::db_versions(&db))
            .expect("entry just stored");
        let mut ev = Evaluator::new(&db);
        let mut second = Vec::new();
        ev.stream_cached_plans(&prog, &cached, |row| second.push(row))
            .unwrap();
        second.sort();
        assert_eq!(first, second);
        assert!(
            ev.relation("Reach1").is_none(),
            "cached streaming must skip intermediate derivation"
        );
    }

    #[test]
    fn plan_cache_row_budget_bounds_memory() {
        let db = db();
        // Every cached answer plan embeds the Reach1 rows (3 of them) as
        // a Values leaf. With a budget of 4 embedded rows, at most one
        // such entry fits at a time, and eviction keeps the total within
        // budget.
        let mut cache = PlanCache::with_row_budget(4);
        for i in 0..3i64 {
            let prog = Program {
                rules: vec![
                    rule(
                        "Reach1",
                        vec![v("w")],
                        vec![pos("E", vec![c(0), any(), v("w")])],
                    ),
                    rule(
                        "Reach2",
                        vec![v("w")],
                        vec![
                            pos("Reach1", vec![v("x")]),
                            pos("E", vec![v("x"), any(), v("w")]),
                            cmp(v("w"), CmpOp::Ge, c(i)),
                        ],
                    ),
                ],
            };
            let mut ev = Evaluator::new(&db);
            ev.run_cached(&prog, &mut cache).unwrap();
            assert!(
                cache.embedded_row_count() <= 4,
                "budget exceeded: {} rows cached",
                cache.embedded_row_count()
            );
        }
        assert!(
            cache.len() <= 1,
            "{} entries fit a 4-row budget",
            cache.len()
        );

        // A zero budget caches nothing (every entry is oversized), but
        // evaluation still works.
        let mut none = PlanCache::with_row_budget(0);
        let prog = Program {
            rules: vec![rule(
                "Q",
                vec![v("u")],
                vec![pos("Users", vec![v("u"), any()])],
            )],
        };
        let mut ev = Evaluator::new(&db);
        ev.run_cached(&prog, &mut none).unwrap();
        assert_eq!(ev.relation("Q").unwrap().len(), 3);
        assert!(none.is_empty() || none.embedded_row_count() == 0);
    }

    #[test]
    fn materializing_executor_mode_agrees() {
        let db = db();
        let r = rule(
            "Q",
            vec![v("u1"), v("u2"), v("w2")],
            vec![
                pos("E", vec![c(0), v("u1"), v("w")]),
                pos("E", vec![v("w"), v("u2"), v("w2")]),
            ],
        );
        let mut chunked = Evaluator::new(&db);
        let mut materializing = Evaluator::new(&db).use_materializing_executor();
        let mut a = chunked.eval_rule(&r).unwrap();
        let mut b = materializing.eval_rule(&r).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // And a whole program, intermediate heads included.
        let prog = reach_program();
        chunked.run(&prog).unwrap();
        materializing.run(&prog).unwrap();
        let mut a = chunked.relation("Reach2").unwrap().to_vec();
        let mut b = materializing.relation("Reach2").unwrap().to_vec();
        a.sort();
        b.sort();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn union_of_rules_same_head() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![
                rule(
                    "Q",
                    vec![v("u")],
                    vec![pos("Users", vec![v("u"), c("Alice")])],
                ),
                rule(
                    "Q",
                    vec![v("u")],
                    vec![pos("Users", vec![v("u"), c("Bob")])],
                ),
                // duplicate of the first: result must stay deduplicated
                rule(
                    "Q",
                    vec![v("u")],
                    vec![pos("Users", vec![v("u"), c("Alice")])],
                ),
            ],
        };
        ev.run(&prog).unwrap();
        let mut rows = ev.relation("Q").unwrap().to_vec();
        rows.sort();
        assert_eq!(rows, vec![row![1], row![2]]);
    }
}

// ---------------------------------------------------------------------------
// Display: render programs in conventional Datalog syntax (used by EXPLAIN).
// ---------------------------------------------------------------------------

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Var(n) => write!(f, "{n}"),
            Term::Const(Value::Str(s)) => write!(f, "'{s}'"),
            Term::Const(v) => write!(f, "{v}"),
            Term::Any => write!(f, "_"),
        }
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for CmpLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

impl std::fmt::Display for BodyLit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BodyLit::Pos(a) => write!(f, "{a}"),
            BodyLit::Neg(a) => write!(f, "not {a}"),
            BodyLit::Cmp(c) => write!(f, "{c}"),
            BodyLit::Or(disjuncts) => {
                write!(f, "(")?;
                for (i, conj) in disjuncts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    if conj.len() > 1 {
                        write!(f, "(")?;
                    }
                    for (j, c) in conj.iter().enumerate() {
                        if j > 0 {
                            write!(f, " & ")?;
                        }
                        write!(f, "{c}")?;
                    }
                    if conj.len() > 1 {
                        write!(f, ")")?;
                    }
                }
                write!(f, ")")
            }
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, lit) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{lit}")?;
        }
        write!(f, ".")
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::dsl::*;
    use super::*;

    #[test]
    fn rules_render_as_datalog() {
        let r = rule(
            "Q",
            vec![v("x"), c("marker")],
            vec![
                pos("E", vec![c(0), v("x"), v("z")]),
                neg("V", vec![v("z"), any()]),
                cmp(v("x"), CmpOp::Ne, c(3)),
            ],
        );
        assert_eq!(
            r.to_string(),
            "Q(x, 'marker') :- E(0, x, z), not V(z, _), x <> 3."
        );
    }

    #[test]
    fn disjunctions_render_in_dnf() {
        let r = Rule {
            head: atom("Q", vec![v("x")]),
            body: vec![
                pos("T", vec![v("x"), v("s")]),
                BodyLit::Or(vec![
                    vec![
                        CmpLit {
                            left: v("s"),
                            op: CmpOp::Eq,
                            right: c("-"),
                        },
                        CmpLit {
                            left: v("x"),
                            op: CmpOp::Eq,
                            right: c(1),
                        },
                    ],
                    vec![CmpLit {
                        left: v("s"),
                        op: CmpOp::Eq,
                        right: c("+"),
                    }],
                ]),
            ],
        };
        assert_eq!(
            r.to_string(),
            "Q(x) :- T(x, s), ((s = '-' & x = 1) | s = '+')."
        );
    }

    #[test]
    fn programs_render_line_per_rule() {
        let prog = Program {
            rules: vec![
                rule(
                    "A",
                    vec![v("x")],
                    vec![pos("E", vec![v("x"), any(), any()])],
                ),
                rule("B", vec![v("x")], vec![pos("A", vec![v("x")])]),
            ],
        };
        let text = prog.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("A(x) :- E(x, _, _)."));
        assert!(text.contains("B(x) :- A(x)."));
    }
}
