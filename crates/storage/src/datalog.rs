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
//! anti-joins, comparisons selections. A program runs rule-at-a-time in
//! program order, materializing each derived relation for the rules
//! after it. Every relation a rule reads must be complete by then: the
//! one program-order rule, [`crate::sema::read_before_defined`] (BD002),
//! rejects a body atom that reads a head at or before its last defining
//! rule — which also rules out recursion.

use crate::catalog::Database;
use crate::error::{Result, StorageError};
use crate::exec::execute;
use crate::expr::{CmpOp, Expr};
use crate::index::CellHash;
use crate::plan::Plan;
use crate::row::Row;
use crate::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Entries kept in a [`PlanCache`] before first-in-first-out eviction.
const PLAN_CACHE_CAP: usize = 64;

/// Total rows the cache will hold: rows embedded (as `Values` leaves) in
/// cached plans plus rows of stored answers. Entries are evicted FIFO
/// past this budget, a single program whose plans embed more than the
/// whole budget is not cached at all, and an answer that would take its
/// entry past it is not stored. Keeps the cache from pinning large
/// intermediate results in memory after queries complete.
const PLAN_CACHE_ROW_BUDGET: usize = 200_000;

/// A cache of optimized physical plans for the *answer* rules of whole
/// programs, keyed by the program's deterministic textual rendering plus
/// a table version vector captured at planning time. Repeat queries
/// against an unmutated database skip compilation, every optimizer
/// rewrite pass, **and the re-derivation of intermediate relations**.
/// Invalidation is precise to the program's *read set*
/// ([`PlanCache::read_versions`]): entries record the version of every
/// base table the program's rules reference, so a mutation of an
/// unrelated table leaves cached answers valid.
///
/// Only the plans of rules deriving the final head are stored: by
/// compile time every derived relation they read is embedded as a
/// `Values` leaf, so they are self-contained. Replaying them is sound
/// because program evaluation is deterministic — with identical
/// base-table versions every derived relation is reproduced exactly.
/// The same argument covers the last step: an entry can also keep the
/// program's sorted answer ([`PlanCache::attach_answer`]), which a caller
/// attaches as soon as a run of the program has collected it. A hit on
/// an entry with an answer ([`PlanCache::lookup_entry`]) needs no
/// execution at all.
///
/// In front of the program-keyed entries sits a *query memo*
/// ([`PlanCache::lookup_query`]): a caller-made key of the query a
/// program was translated from, mapped to the program's key and a
/// [`QueryStamp`] of everything else the translation read. A memo hit at
/// the same stamp, on an entry with an answer whose read set is still at
/// its versions, returns that answer without translating the query or
/// rendering the program. Memo entries belong to the program entry they
/// name and leave with it (eviction or replacement), so the row budget
/// and FIFO bound the memo too.
///
/// Locking discipline: [`PlanCache::lookup`] and [`PlanCache::store`]
/// are brief (a version compare plus an `Arc` clone), and
/// [`PlanCache::attach_answer`] copies one answer once; callers holding
/// the cache behind a mutex should release it while the plans execute
/// (see `beliefdb-core`'s `bcq::translate::evaluate`).
pub struct PlanCache {
    entries: HashMap<Arc<str>, CachedProgram>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Arc<str>>,
    /// The query memo: a query's key → the program it translated to.
    queries: HashMap<Box<[u8]>, MemoEntry>,
    /// Rows embedded across all cached entries' plans.
    embedded_rows: usize,
    /// Rows of the answers stored with cached entries. Tracked against
    /// the budget together with `embedded_rows`.
    answer_rows: usize,
    row_budget: usize,
    hits: u64,
    misses: u64,
    /// Hits answered by the query memo, a subset of `hits`.
    query_hits: u64,
}

/// A version of what translating a query read besides the tables: the
/// caller's to define (`beliefdb-core` uses the number of worlds and of
/// users, both of which only grow). Equal stamps mean the query
/// translates to the same program.
pub type QueryStamp = (usize, usize);

/// A query memo entry: the program a query translated to, at a stamp.
struct MemoEntry {
    program: Arc<str>,
    stamp: QueryStamp,
}

struct CachedProgram {
    /// `(table, version)` per table, sorted by name (the catalog order).
    versions: Vec<(String, u64)>,
    /// Optimized plans of the rules deriving the final head, in program
    /// order, shared so a cache hit never deep-copies embedded rows.
    plans: Arc<Vec<Plan>>,
    /// Rows embedded in `plans` as `Values` leaves.
    rows: usize,
    /// The program's sorted answer at `versions`, once attached.
    answer: Option<Arc<Vec<Row>>>,
    /// Keys of the memo entries naming this program.
    queries: Vec<Box<[u8]>>,
}

/// What a hit on a [`PlanCache`] entry returns: the cached answer plans,
/// and the program's sorted answer once one was attached.
pub struct CacheHit {
    pub plans: Arc<Vec<Plan>>,
    pub answer: Option<Arc<Vec<Row>>>,
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
            embedded_rows: 0,
            answer_rows: 0,
            queries: HashMap::new(),
            row_budget,
            hits: 0,
            misses: 0,
            query_hits: 0,
        }
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
    /// entry would silently serve stale introspection data. A caller
    /// that caches arbitrary programs checks this and runs such a program
    /// uncached.
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
        self.lookup_entry(key, versions).map(|hit| hit.plans)
    }

    /// [`PlanCache::lookup`], also returning the entry's stored answer
    /// when one was attached. Counts a hit or miss.
    pub fn lookup_entry(&mut self, key: &str, versions: &[(String, u64)]) -> Option<CacheHit> {
        match self.entries.get(key) {
            Some(entry) if entry.versions == versions => {
                self.hits += 1;
                crate::obs::metrics().incr(crate::obs::Metric::PlanCacheHits);
                Some(CacheHit {
                    plans: Arc::clone(&entry.plans),
                    answer: entry.answer.clone(),
                })
            }
            _ => {
                self.misses += 1;
                crate::obs::metrics().incr(crate::obs::Metric::PlanCacheMisses);
                None
            }
        }
    }

    /// The stored answer of the query under `query`, when the memo maps
    /// it at `stamp` to a program whose entry holds an answer and whose
    /// read set is still at the versions the entry was planned at.
    /// Counts a hit (and a query hit) when it answers, and nothing when
    /// it does not: the caller then translates and looks the program up,
    /// which counts.
    pub fn lookup_query(
        &mut self,
        db: &Database,
        query: &[u8],
        stamp: QueryStamp,
    ) -> Option<Arc<Vec<Row>>> {
        let memo = self.queries.get(query).filter(|m| m.stamp == stamp)?;
        let entry = &self.entries[&memo.program];
        let current = (entry.versions.iter())
            .all(|(name, v)| db.table(name).is_ok_and(|t| t.version() == *v));
        let answer = entry.answer.clone().filter(|_| current)?;
        self.hits += 1;
        self.query_hits += 1;
        crate::obs::metrics().incr(crate::obs::Metric::PlanCacheHits);
        Some(answer)
    }

    /// Remember that `query`, at `stamp`, translates to the program
    /// cached under `key` at `versions`, replacing what the memo held for
    /// `query`. Does nothing when no entry is cached under `key` at those
    /// versions.
    pub fn remember_query(
        &mut self,
        query: &[u8],
        stamp: QueryStamp,
        key: &str,
        versions: &[(String, u64)],
    ) {
        let Some((program, _)) = self
            .entries
            .get_key_value(key)
            .filter(|(_, e)| e.versions == versions)
        else {
            return;
        };
        let program = Arc::clone(program);
        if let Some(old) = self.queries.remove(query) {
            let listed = self
                .entries
                .get_mut(&old.program)
                .expect("memo names an entry");
            listed.queries.retain(|q| **q != *query);
        }
        let query: Box<[u8]> = query.into();
        let entry = self.entries.get_mut(key).expect("entry checked above");
        entry.queries.push(query.clone());
        self.queries.insert(query, MemoEntry { program, stamp });
    }

    /// Record the answer plans of a freshly planned program. Oversized
    /// entries (more embedded rows than the whole budget) are dropped;
    /// otherwise older entries are evicted FIFO until both the entry
    /// count and the row budget fit. Either way an entry already stored
    /// under `key` is replaced: it is removed first.
    pub fn store(&mut self, key: String, versions: Vec<(String, u64)>, plans: Vec<Plan>) {
        if self.entries.contains_key(key.as_str()) {
            self.order.retain(|k| **k != *key);
            self.forget(&key);
        }
        let rows: usize = plans.iter().map(embedded_rows).sum();
        if rows > self.row_budget {
            return;
        }
        while !self.order.is_empty()
            && (self.order.len() >= PLAN_CACHE_CAP || self.held_rows() + rows > self.row_budget)
        {
            let victim = self.order.pop_front().expect("order non-empty");
            self.forget(&victim);
        }
        self.embedded_rows += rows;
        let key: Arc<str> = key.into();
        self.order.push_back(Arc::clone(&key));
        self.entries.insert(
            key,
            CachedProgram {
                versions,
                plans: Arc::new(plans),
                rows,
                answer: None,
                queries: Vec::new(),
            },
        );
    }

    /// Keep `answer`, the sorted answer of the program cached under `key`,
    /// with its entry, so later hits return it without executing. Sound
    /// for the same reason replaying the plans is: the answer was computed
    /// at `versions`, and the entry is only served at exactly those. Does
    /// nothing when the entry is absent, was planned at other versions or
    /// already has an answer, or when its plans and this answer together
    /// exceed the whole row budget; otherwise older entries are evicted
    /// FIFO until the answer fits. Returns whether the answer was stored.
    pub fn attach_answer(&mut self, key: &str, versions: &[(String, u64)], answer: &[Row]) -> bool {
        match self.entries.get(key) {
            Some(entry)
                if entry.versions == versions
                    && entry.answer.is_none()
                    && entry.rows + answer.len() <= self.row_budget => {}
            _ => return false,
        }
        while self.held_rows() + answer.len() > self.row_budget {
            // The entry alone fits, so an older one is left to evict.
            let at = self
                .order
                .iter()
                .position(|k| **k != *key)
                .expect("another entry");
            let victim = self.order.remove(at).expect("position in range");
            self.forget(&victim);
        }
        self.answer_rows += answer.len();
        let entry = self.entries.get_mut(key).expect("entry checked above");
        entry.answer = Some(Arc::new(answer.to_vec()));
        true
    }

    /// Drop the entry under `key` (already out of `order`), its rows and
    /// the memo entries naming it.
    fn forget(&mut self, key: &str) {
        if let Some(old) = self.entries.remove(key) {
            self.embedded_rows -= old.rows;
            self.answer_rows -= old.answer.map_or(0, |a| a.len());
            for query in &old.queries {
                self.queries.remove(query);
            }
        }
    }

    /// Rows held against the budget.
    fn held_rows(&self) -> usize {
        self.embedded_rows + self.answer_rows
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
        self.embedded_rows
    }

    /// Rows of the answers stored across all cached entries.
    pub fn answer_row_count(&self) -> usize {
        self.answer_rows
    }

    /// Lookups served from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to plan from scratch.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits the query memo answered, without translating the query.
    pub fn query_hits(&self) -> u64 {
        self.query_hits
    }

    /// Queries the memo maps to a cached program.
    pub fn query_count(&self) -> usize {
        self.queries.len()
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
/// their results. A rule reads only base tables and relations whose last
/// defining rule comes before it ([`crate::sema::read_before_defined`]),
/// so the program evaluates rule-at-a-time in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub rules: Vec<Rule>,
}

/// Where [`Evaluator::run_answer`] sends the rows of the answer relation
/// (the head of the program's last rule). Rules deriving any other head
/// always materialize it: later rules read it.
pub enum Output<'s> {
    /// Materialize the answer head like every other head; read it with
    /// [`Evaluator::relation`].
    Collect,
    /// [`Output::Collect`], with every answer-rule plan run under
    /// per-operator profiling ([`Ran::profiles`]).
    Profile,
    /// Hand each answer row to the callback as the executor produces it,
    /// deduplicated and unsorted; the answer head is never materialized.
    Stream(&'s mut dyn FnMut(Row)),
}

/// What [`Evaluator::run_answer`] ran.
pub struct Ran<'p> {
    /// The answer relation, `None` for an empty program.
    pub answer: Option<String>,
    /// The answer rules' optimized plans in program order: the cached
    /// plans when they ran, else the freshly planned ones — the list a
    /// miss hands to [`PlanCache::store`].
    pub plans: std::borrow::Cow<'p, [Plan]>,
    /// Under [`Output::Profile`], the execution profile of each plan in
    /// `plans`; empty otherwise.
    pub profiles: Vec<crate::obs::Profile>,
}

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
    /// Run every compiled rule plan through [`crate::opt`]'s fixed
    /// pipeline; off only under [`Evaluator::new_unoptimized`].
    optimize: bool,
    stats: Option<crate::opt::StatsCatalog>,
    /// Run rule plans through the materializing reference executor
    /// ([`crate::exec::execute_materialized`]) instead of the chunked one
    /// — only the differential suites set this.
    materialized: bool,
    /// Memory budget for the chunked executor's materialization points
    /// (see [`crate::exec::spill`]); unlimited by default. The
    /// materializing reference executor ignores it.
    spill: crate::exec::SpillOptions,
    /// The dedup set of the head the last rule fed: a head's rules run
    /// back to back, so the next rule of the same head extends it instead
    /// of rebuilding it from the head's rows.
    head_seen: Option<(String, HashSet<Row, CellHash>)>,
}

/// Pull every result row of `plan` through the chunked executor (or, with
/// `materialized`, the reference executor) into `sink`, in executor
/// order. The chunked path hands whole batches across the executor
/// boundary — the per-row call happens only inside this loop, not per
/// operator. With `profile` on, the chunked executor always runs (a
/// profile describes its operator tree) and its live
/// [`Profile`](crate::obs::Profile) is returned: the `EXPLAIN ANALYZE`
/// backend.
fn drive(
    db: &Database,
    plan: &Plan,
    materialized: bool,
    spill: &crate::exec::SpillOptions,
    profile: bool,
    mut sink: impl FnMut(Row),
) -> Result<Option<crate::obs::Profile>> {
    // Rows delivered are accumulated locally and added to the metrics
    // registry once per plan — no atomic traffic in the row loop.
    let mut emitted = 0u64;
    let mut sink = |row| {
        emitted += 1;
        sink(row)
    };
    let result = (|| {
        if materialized && !profile {
            for row in crate::exec::execute_materialized(db, plan)? {
                sink(row);
            }
            return Ok(None);
        }
        let exec = crate::exec::Executor::with_spill(db, spill.clone());
        let (chunks, profile) = if profile {
            let (chunks, profile) = exec.open_chunks_profiled(plan)?;
            (chunks, Some(profile))
        } else {
            (exec.open_chunks(plan)?, None)
        };
        // Drain through a reused scratch buffer so each chunk's backing
        // storage goes back to the executor's pool instead of being
        // reallocated per batch.
        let mut scratch: Vec<Row> = Vec::new();
        for chunk in chunks {
            chunk?.drain_into(&mut scratch);
            for row in scratch.drain(..) {
                sink(row);
            }
        }
        Ok(profile)
    })();
    crate::obs::metrics().add(crate::obs::Metric::RowsEmitted, emitted);
    result
}

/// An atom's own constraints on its source: `col = constant` for every
/// constant and `col = col` for every repeat of a variable, as one
/// selection over `src`. Returns the constrained source and each
/// variable's first position, in position order.
fn constrain(src: Plan, atom: &Atom) -> (Plan, Vec<(&str, usize)>) {
    let mut preds: Vec<Expr> = Vec::new();
    let mut vars: Vec<(&str, usize)> = Vec::new();
    for (pos, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(v) => preds.push(Expr::col_eq_lit(pos, v.clone())),
            Term::Any => {}
            Term::Var(name) => match vars.iter().find(|&&(seen, _)| seen == name.as_str()) {
                Some(&(_, first)) => preds.push(Expr::col_eq_col(first, pos)),
                None => vars.push((name, pos)),
            },
        }
    }
    let src = if preds.is_empty() {
        src
    } else {
        src.select(Expr::and(preds))
    };
    (src, vars)
}

impl<'a> Evaluator<'a> {
    pub fn new(db: &'a Database) -> Self {
        Evaluator {
            db,
            derived: HashMap::new(),
            optimize: true,
            stats: None,
            materialized: false,
            spill: crate::exec::SpillOptions::unlimited(),
            head_seen: None,
        }
    }

    /// An evaluator that executes rule plans exactly as compiled.
    pub fn new_unoptimized(db: &'a Database) -> Self {
        Evaluator {
            optimize: false,
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
    /// (hash-join builds, distincts, buffered right sides) may hold per
    /// query; past the budget they spill to disk (grace hash join,
    /// distinct partitioning — see [`crate::exec::spill`]). `None` (the
    /// default) keeps every materialization fully in memory.
    pub fn with_memory_budget(mut self, budget: Option<usize>) -> Self {
        self.spill.budget = budget;
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

    /// Compile a rule and run it through the optimizer (when enabled),
    /// against the evaluator's statistics snapshot: taken on first use,
    /// refreshed only when the database has changed since.
    pub fn plan_rule(&mut self, rule: &Rule) -> Result<Plan> {
        let plan = self.compile_rule(rule)?;
        if !self.optimize {
            return Ok(plan);
        }
        self.refresh_stats();
        let stats = self.stats.as_ref().expect("just refreshed");
        crate::opt::optimize_with_stats(self.db, stats, plan)
    }

    /// Render the optimized physical plan of each rule (the program-level
    /// `EXPLAIN`).
    ///
    /// Intermediate heads are materialized so later rules compile against
    /// real derived relations (their sizes drive the cost estimates shown);
    /// the final rule — the query answer — is planned but **not** executed.
    /// Rules produced by the magic-sets rewrite carry a deterministic
    /// `[magic … adorn=…]` tag after their header line. A program out of
    /// definition order is rejected with BD002, as [`Evaluator::run_answer`]
    /// rejects it.
    pub fn explain_program(&mut self, program: &Program) -> Result<String> {
        check_program_order(program)?;
        let mut out = String::new();
        for (i, rule) in program.rules.iter().enumerate() {
            self.check_head(rule)?;
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

    /// Render the `EXPLAIN ANALYZE` report for the plans and profiles of
    /// a run under [`Output::Profile`] ([`Ran::plans`] /
    /// [`Ran::profiles`]): every operator line carries its estimate
    /// **and** what actually happened (rows, chunks, wall time,
    /// kernel-vs-fallback rows, spill traffic). Call after the run so the
    /// profiles are final.
    pub fn render_analyze_report(
        &mut self,
        plans: &[Plan],
        profiles: &[crate::obs::Profile],
    ) -> String {
        self.refresh_stats();
        let stats = self.stats.as_ref().expect("just refreshed");
        let mut out = String::new();
        for (plan, profile) in plans.iter().zip(profiles) {
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
        self.head_seen = None;
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
        check_arity(&rule.head.relation, entry.0, arity)?;
        Ok(entry)
    }

    /// Evaluate `plan` and fold its rows into the rule's head relation,
    /// deduplicating incrementally. On the (default) chunked path whole
    /// batches flow from the executor straight into the derived entry —
    /// no per-rule intermediate `Vec`, and no per-row virtual call at
    /// the executor boundary.
    fn consume_into_head(&mut self, rule: &Rule, plan: &Plan) -> Result<()> {
        let mut seen = self.take_head_seen(rule)?;
        let out = self.feed(rule, plan, &mut Output::Collect, &mut seen);
        self.head_seen = Some((rule.head.relation.clone(), seen));
        out.map(|_| ())
    }

    /// The dedup set of `rule`'s head: the one the previous rule left if
    /// it fed the same head (and the head has not changed since), else
    /// built from the head's rows.
    fn take_head_seen(&mut self, rule: &Rule) -> Result<HashSet<Row, CellHash>> {
        let cached = self.head_seen.take();
        let rows = &self.head_entry(rule)?.1;
        Ok(match cached {
            Some((head, seen)) if head == rule.head.relation && seen.len() == rows.len() => seen,
            _ => rows.iter().cloned().collect(),
        })
    }

    /// Materialized rows of a derived relation.
    pub fn relation(&self, name: &str) -> Option<&[Row]> {
        self.derived.get(name).map(|(_, rows)| rows.as_slice())
    }

    /// Run every rule, materializing head relations. Returns the name of
    /// the last head (by convention the query answer). Rules evaluate
    /// rule-at-a-time in program order, rows streaming from the executor
    /// into the derived relations.
    pub fn run(&mut self, program: &Program) -> Result<Option<String>> {
        self.run_answer(program, None, Output::Collect)
            .map(|ran| ran.answer)
    }

    /// Run `program` with its answer relation — the last rule's head —
    /// delivered through `out`: the one rule loop behind every way a
    /// query runs.
    ///
    /// With `cached` plans (from [`PlanCache::lookup`]) that line up with
    /// the program's answer rules, only those plans run — they embed
    /// every derived relation they read as `Values` — and no other head
    /// is derived. Otherwise the program's order is checked
    /// ([`crate::sema::read_before_defined`], BD002), every rule is
    /// planned and run in program order, and [`Ran::plans`] returns the
    /// answer rules' fresh plans for [`PlanCache::store`]; a plan list
    /// that does not line up (a stale or foreign cache entry) falls back
    /// to this full run. The answer rules share one dedup set, whether
    /// their rows go to the head or to the sink.
    pub fn run_answer<'p>(
        &mut self,
        program: &Program,
        cached: Option<&'p [Plan]>,
        mut out: Output<'_>,
    ) -> Result<Ran<'p>> {
        let mut ran = Ran {
            answer: program.rules.last().map(|r| r.head.relation.clone()),
            plans: Vec::new().into(),
            profiles: Vec::new(),
        };
        let Some(last) = program.rules.last() else {
            return Ok(ran);
        };
        let head = &last.head.relation;
        let answer_rules = program.rules.iter().filter(|r| &r.head.relation == head);
        let replay = cached.filter(|plans| plans.len() == answer_rules.clone().count());
        // Under `Stream` no head entry checks that the answer rules agree
        // on the arity, so check it up front for every output.
        let width = last.head.terms.len();
        for rule in answer_rules.clone() {
            check_arity(head, rule.head.terms.len(), width)?;
        }
        // The answer starts empty: `seen` is its whole dedup set.
        self.derived.remove(head);
        let mut seen: HashSet<Row, CellHash> = HashSet::default();
        if let Some(plans) = replay {
            for (rule, plan) in answer_rules.zip(plans) {
                ran.profiles
                    .extend(self.feed(rule, plan, &mut out, &mut seen)?);
            }
            ran.plans = plans.into();
            return Ok(ran);
        }
        check_program_order(program)?;
        let mut plans = Vec::new();
        for rule in &program.rules {
            self.check_head(rule)?;
            let plan = self.plan_rule(rule)?;
            if &rule.head.relation == head {
                ran.profiles
                    .extend(self.feed(rule, &plan, &mut out, &mut seen)?);
                plans.push(plan);
            } else {
                self.consume_into_head(rule, &plan)?;
            }
        }
        ran.plans = plans.into();
        Ok(ran)
    }

    /// Run one rule's plan into `out`, deduplicated against `seen`: into
    /// the rule's head under [`Output::Collect`] / [`Output::Profile`]
    /// (returning the profile under the latter), into the callback under
    /// [`Output::Stream`].
    fn feed(
        &mut self,
        rule: &Rule,
        plan: &Plan,
        out: &mut Output<'_>,
        seen: &mut HashSet<Row, CellHash>,
    ) -> Result<Option<crate::obs::Profile>> {
        let db = self.db;
        let materialized = self.materialized;
        let spill = self.spill.clone();
        let profile = matches!(out, Output::Profile);
        if let Output::Stream(sink) = out {
            return drive(db, plan, materialized, &spill, false, |row| {
                if seen.insert(row.clone()) {
                    sink(row);
                }
            });
        }
        let entry = self.head_entry(rule)?;
        drive(db, plan, materialized, &spill, profile, |row| {
            if seen.insert(row.clone()) {
                entry.1.push(row);
            }
        })
    }

    /// Execute cached answer plans (from [`PlanCache::lookup`]) for
    /// `program`: [`Evaluator::run_answer`] under [`Output::Collect`], kept
    /// with this signature for callers that replay plans themselves.
    pub fn run_cached_plans(
        &mut self,
        program: &Program,
        plans: &[Plan],
    ) -> Result<Option<String>> {
        self.run_answer(program, Some(plans), Output::Collect)
            .map(|ran| ran.answer)
    }

    /// Run the whole program (exactly like [`Evaluator::run`]) and also
    /// return the optimized plans of the rules deriving the final head,
    /// for a later [`PlanCache::store`].
    pub fn run_collecting_plans(
        &mut self,
        program: &Program,
    ) -> Result<(Option<String>, Vec<Plan>)> {
        let ran = self.run_answer(program, None, Output::Collect)?;
        Ok((ran.answer, ran.plans.into_owned()))
    }

    /// A rule may derive into neither a base table nor a `sys.*` relation.
    fn check_head(&self, rule: &Rule) -> Result<()> {
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

    /// Evaluate a single rule to its (deduplicated) head rows, planned
    /// through [`Evaluator::plan_rule`].
    pub fn eval_rule(&mut self, rule: &Rule) -> Result<Vec<Row>> {
        let plan = self.plan_rule(rule)?;
        let mut rows = Vec::new();
        drive(
            self.db,
            &plan,
            self.materialized,
            &self.spill,
            false,
            |row| rows.push(row),
        )?;
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
            let (src, vars) = constrain(src, atom);
            let mut joins: Vec<(usize, usize)> = Vec::new();
            let mut new_binds: Vec<(String, usize)> = Vec::new();
            for (name, pos) in vars {
                if let Some(&acc_col) = bind.get(name) {
                    joins.push((acc_col, pos));
                } else {
                    new_binds.push((name.to_string(), acc_arity + pos));
                }
            }
            acc = acc.join(src, joins);
            acc_arity += src_arity;
            for (name, col) in new_binds {
                bind.insert(name, col);
            }
            self.apply_ready(&mut acc, &bind, &mut pending, false)?;
        }

        // Negated atoms go on top of the whole join: the positive atoms
        // form one block the optimizer can order, and an anti-join probes
        // only the rows that survive it. Anything still pending must now
        // be applicable (negated atoms and comparisons whose variables
        // never bound are unsafe).
        self.apply_ready(&mut acc, &bind, &mut pending, true)?;
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

    /// Apply every pending literal whose variables are all bound — negated
    /// atoms only if `negations` is set.
    fn apply_ready(
        &self,
        acc: &mut Plan,
        bind: &HashMap<String, usize>,
        pending: &mut Vec<&BodyLit>,
        negations: bool,
    ) -> Result<()> {
        let mut i = 0;
        while i < pending.len() {
            let lit = pending[i];
            if (negations || !matches!(lit, BodyLit::Neg(_))) && self.lit_ready(lit, bind) {
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
                let e = self.cmp_expr(c, bind)?;
                Ok(acc.select(e))
            }
            BodyLit::Or(disjuncts) => {
                let mut parts = Vec::with_capacity(disjuncts.len());
                for conj in disjuncts {
                    let mut es = Vec::with_capacity(conj.len());
                    for c in conj {
                        es.push(self.cmp_expr(c, bind)?);
                    }
                    parts.push(Expr::and(es));
                }
                Ok(acc.select(Expr::or(parts)))
            }
            BodyLit::Neg(atom) => {
                let (src, _src_arity) = self.atom_source(atom)?;
                let (src, vars) = constrain(src, atom);
                let joins = vars.iter().map(|&(name, pos)| (bind[name], pos)).collect();
                Ok(acc.anti_join(src, joins))
            }
        }
    }

    /// Comparison over bound columns/constants.
    fn cmp_expr(&self, c: &CmpLit, bind: &HashMap<String, usize>) -> Result<Expr> {
        let side = |t: &Term| -> Result<Expr> {
            match t {
                Term::Var(n) => {
                    let col = bind.get(n).ok_or_else(|| {
                        StorageError::DatalogError(format!("comparison variable `{n}` unbound"))
                    })?;
                    Ok(Expr::Col(*col))
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

/// BD002 for the first atom of `program` that reads a head relation at
/// or before its last defining rule.
fn check_program_order(program: &Program) -> Result<()> {
    match crate::sema::read_before_defined(program).first() {
        Some(d) => Err(StorageError::DatalogError(d.code_message())),
        None => Ok(()),
    }
}

/// The error for a relation derived with arity `got` after arity `had`.
fn check_arity(relation: &str, had: usize, got: usize) -> Result<()> {
    if had == got {
        return Ok(());
    }
    Err(StorageError::DatalogError(format!(
        "relation `{relation}` derived with conflicting arities {had} and {got}"
    )))
}

fn dedup_rows(rows: &mut Vec<Row>) {
    let mut seen: HashSet<Row, CellHash> =
        HashSet::with_capacity_and_hasher(rows.len(), CellHash::default());
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
        let mut ev = Evaluator::new(&db);
        let r = rule("Q", vec![v("n")], vec![pos("Users", vec![v("u"), v("n")])]);
        let mut rows = ev.eval_rule(&r).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row!["Alice"], row!["Bob"], row!["Carol"]]);
    }

    #[test]
    fn constants_select() {
        let db = db();
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
        let mut ev = Evaluator::new(&db);
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
    fn recursive_negation_is_rejected_as_unstratifiable() {
        let db = db();
        let mut ev = Evaluator::new(&db);
        // win(x) :- E(x, y, _), not win(y): the rule reads its own head.
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
        assert!(
            err.to_string().contains("rule for `Win` reads `Win`"),
            "{err}"
        );
    }

    /// One rule per `(head, body)` pair: `head(u) :- Users(u, 'Alice').`
    /// for the bodies `Alice` and `Bob`, `head(u) :- body(u).` otherwise.
    fn order_program(rules: &[(&str, &str)]) -> Program {
        let rules = rules
            .iter()
            .map(|&(head, body)| match body {
                "Alice" | "Bob" => rule(
                    head,
                    vec![v("u")],
                    vec![pos("Users", vec![v("u"), c(body)])],
                ),
                read => rule(head, vec![v("u")], vec![pos(read, vec![v("u")])]),
            })
            .collect();
        Program { rules }
    }

    #[test]
    fn reads_before_the_last_definition_are_bd002_everywhere() {
        let db = db();
        // Q would read T = {1} while T ends up {1, 2}.
        let half_derived = order_program(&[("T", "Alice"), ("Q", "T"), ("T", "Bob")]);
        // Q reads T before any rule defines it.
        let undefined_yet = order_program(&[("Q", "T"), ("T", "Alice")]);
        for prog in [&half_derived, &undefined_yet] {
            let err = Evaluator::new(&db).run(prog).unwrap_err();
            assert_eq!(err.code(), Some("BD002"), "{err}");
            assert!(err.to_string().contains("rule for `Q` reads `T`"), "{err}");
            let err = Evaluator::new(&db).explain_program(prog).unwrap_err();
            assert_eq!(err.code(), Some("BD002"), "{err}");
            let diags = crate::sema::lint_program(&db, prog);
            assert!(
                diags.iter().any(|d| d.code == "BD002" && d.is_error()),
                "{diags:?}"
            );
        }
        // In definition order the same rules run, and Q sees all of T.
        let ordered = order_program(&[("T", "Alice"), ("T", "Bob"), ("Q", "T")]);
        let mut ev = Evaluator::new(&db);
        ev.run(&ordered).unwrap();
        let mut q = ev.relation("Q").unwrap().to_vec();
        q.sort();
        assert_eq!(q, vec![row![1], row![2]]);
        assert!(crate::sema::lint_program(&db, &ordered)
            .iter()
            .all(|d| !d.is_error()));
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
        // A literal temp table is a relation defined by fact rules.
        let db = db();
        let mut ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![
                rule("T", vec![c(1), c("x")], vec![]),
                rule("T", vec![c(2), c("y")], vec![]),
                rule(
                    "Q",
                    vec![v("n"), v("tag")],
                    vec![
                        pos("Users", vec![v("u"), v("n")]),
                        pos("T", vec![v("u"), v("tag")]),
                    ],
                ),
            ],
        };
        ev.run(&prog).unwrap();
        let mut rows = ev.relation("Q").unwrap().to_vec();
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
            let mut optimized = Evaluator::new(&db);
            let mut plain = Evaluator::new_unoptimized(&db);
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
        let mut ev = Evaluator::new(&db);
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

    /// A plan-cache round trip as a caller sharing a cache makes it: look
    /// the program up under its read versions, run the hit's plans (or the
    /// whole program), and store the plans a miss collected. An evaluator
    /// with the optimizer off, and a `sys.*`-reading program, run
    /// uncached: their plans or rows are outside the cache key.
    fn run_cached(ev: &mut Evaluator<'_>, prog: &Program, cache: &mut PlanCache) {
        if !ev.optimize || PlanCache::program_reads_virtual(ev.db, prog) {
            ev.run(prog).unwrap();
            return;
        }
        let key = prog.to_string();
        let versions = PlanCache::read_versions(ev.db, prog);
        let hit = cache.lookup(&key, &versions);
        let ran = ev
            .run_answer(prog, hit.as_deref().map(Vec::as_slice), Output::Collect)
            .unwrap();
        if hit.is_none() {
            cache.store(key, versions, ran.plans.into_owned());
        }
    }

    #[test]
    fn plan_cache_hits_on_repeat_and_invalidates_on_mutation() {
        let mut db = db();
        let prog = reach_program();
        let mut cache = PlanCache::new();

        let mut ev = Evaluator::new(&db);
        run_cached(&mut ev, &prog, &mut cache);
        let mut first = ev.relation("Reach2").unwrap().to_vec();
        first.sort();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 1);

        // Same program, unmutated database: served from the cache, same
        // answer — and the intermediate relation is *not* re-derived
        // (the cached answer plan embeds it).
        let mut ev = Evaluator::new(&db);
        run_cached(&mut ev, &prog, &mut cache);
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
        run_cached(&mut ev, &prog, &mut cache);
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
        run_cached(&mut Evaluator::new(&db), &prog, &mut cache);
        assert_eq!(cache.misses(), 1);
        // Inserting into a table the program never reads must not void
        // the entry: the key covers the read set, not the whole catalog.
        db.table_mut("Users")
            .unwrap()
            .insert(row![9, "Zoe"])
            .unwrap();
        let mut ev = Evaluator::new(&db);
        run_cached(&mut ev, &prog, &mut cache);
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
        // columnar windows, and as a relation derived from it, which
        // reaches the executor as row-major `Values` chunks.
        let db = db();
        let mut cols = Evaluator::new(&db);
        cols.run(&reach_program()).unwrap();

        let mut rows_ev = Evaluator::new(&db);
        let prog = Program {
            rules: vec![
                rule(
                    "ERows",
                    vec![v("a"), v("b"), v("c")],
                    vec![pos("E", vec![v("a"), v("b"), v("c")])],
                ),
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
            run_cached(&mut ev, &prog, &mut cache);
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
        ev.run_answer(&prog, None, Output::Stream(&mut |row| got.push(row)))
            .unwrap();
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
        ev.run_answer(&prog, None, Output::Stream(&mut |row| got.push(row)))
            .unwrap();
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
            .run_answer(&prog, None, Output::Stream(&mut |row| first.push(row)))
            .unwrap()
            .plans
            .into_owned();
        cache.store(
            prog.to_string(),
            PlanCache::read_versions(&db, &prog),
            plans,
        );
        first.sort();

        // Hit path: stream the cached plans — same rows, nothing but the
        // answer computed.
        let cached = cache
            .lookup(&prog.to_string(), &PlanCache::read_versions(&db, &prog))
            .expect("entry just stored");
        let mut ev = Evaluator::new(&db);
        let mut second = Vec::new();
        let sink = Output::Stream(&mut |row| second.push(row));
        ev.run_answer(&prog, Some(&cached), sink).unwrap();
        second.sort();
        assert_eq!(first, second);
        assert!(
            ev.relation("Reach1").is_none(),
            "cached streaming must skip intermediate derivation"
        );
    }

    #[test]
    fn misaligned_cached_plans_fall_back_to_a_full_run() {
        let db = db();
        let prog = reach_program();
        let mut reference = Evaluator::new(&db);
        reference.run(&prog).unwrap();
        let mut want = reference.relation("Reach2").unwrap().to_vec();
        want.sort();
        assert!(!want.is_empty());
        // Two plans for the program's one answer rule: a stale or foreign
        // entry. Every output must ignore it and run the whole program.
        let foreign = [values_plan(5), values_plan(7)].concat();
        let answer = |ev: &Evaluator<'_>| {
            let mut rows = ev.relation("Reach2").unwrap().to_vec();
            rows.sort();
            rows
        };

        let mut ev = Evaluator::new(&db);
        let ran = ev
            .run_answer(&prog, Some(&foreign), Output::Collect)
            .unwrap();
        assert_eq!(answer(&ev), want);
        assert_eq!(
            ran.plans.len(),
            1,
            "the fresh answer plan, not the foreign two"
        );
        assert!(ran.profiles.is_empty());
        assert!(ev.relation("Reach1").is_some(), "a full run derives Reach1");

        let mut ev = Evaluator::new(&db);
        let ran = ev
            .run_answer(&prog, Some(&foreign), Output::Profile)
            .unwrap();
        assert_eq!(answer(&ev), want);
        assert_eq!((ran.plans.len(), ran.profiles.len()), (1, 1));
        assert!(ev.relation("Reach1").is_some(), "a full run derives Reach1");
        let report = ev.render_analyze_report(&ran.plans, &ran.profiles);
        assert!(report.contains("actual rows="), "{report}");

        let mut ev = Evaluator::new(&db);
        let mut got = Vec::new();
        let sink = Output::Stream(&mut |row| got.push(row));
        let ran = ev.run_answer(&prog, Some(&foreign), sink).unwrap();
        got.sort();
        assert_eq!(got, want);
        assert_eq!(ran.plans.len(), 1);
        assert!(ev.relation("Reach1").is_some(), "a full run derives Reach1");
        assert!(
            ev.relation("Reach2").is_none(),
            "a streamed head stays empty"
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
            run_cached(&mut ev, &prog, &mut cache);
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
        run_cached(&mut ev, &prog, &mut none);
        assert_eq!(ev.relation("Q").unwrap().len(), 3);
        assert!(none.is_empty() || none.embedded_row_count() == 0);
    }

    /// A plan embedding `n` one-column rows.
    fn values_plan(n: i64) -> Vec<Plan> {
        vec![Plan::Values {
            arity: 1,
            rows: (0..n).map(|i| row![i]).collect(),
        }]
    }

    fn version(v: u64) -> Vec<(String, u64)> {
        vec![("E".to_string(), v)]
    }

    #[test]
    fn oversized_store_drops_the_stale_entry_under_its_key() {
        let mut cache = PlanCache::with_row_budget(4);
        cache.store("p".into(), version(1), values_plan(2));
        assert_eq!((cache.len(), cache.embedded_row_count()), (1, 2));
        // The replacement is over budget and is not cached; the entry it
        // replaces must not linger (and keep its rows in the count).
        cache.store("p".into(), version(2), values_plan(10));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.embedded_row_count(), 0);
        assert!(cache.lookup("p", &version(1)).is_none());
    }

    #[test]
    fn attached_answer_is_served_at_its_versions_only() {
        let mut cache = PlanCache::new();
        let answer = vec![row![1], row![2]];
        // No entry yet: nothing to attach to.
        assert!(!cache.attach_answer("p", &version(1), &answer));
        cache.store("p".into(), version(1), values_plan(3));
        let hit = cache.lookup_entry("p", &version(1)).expect("stored");
        assert!(hit.answer.is_none(), "a fresh entry has no answer");
        // Attaching at other versions is refused; at the entry's, kept once.
        assert!(!cache.attach_answer("p", &version(2), &answer));
        assert!(cache.attach_answer("p", &version(1), &answer));
        assert!(!cache.attach_answer("p", &version(1), &answer));
        assert_eq!(cache.embedded_row_count(), 3);
        assert_eq!(cache.answer_row_count(), 2);

        let hit = cache.lookup_entry("p", &version(1)).expect("stored");
        assert_eq!(hit.answer.as_deref(), Some(&answer));
        assert_eq!(hit.plans.len(), 1, "the plans stay with the answer");
        assert!(cache.lookup_entry("p", &version(2)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));

        // Replanning under the key drops the answer with the old entry.
        cache.store("p".into(), version(2), values_plan(3));
        assert_eq!(cache.answer_row_count(), 0);
        let hit = cache.lookup_entry("p", &version(2)).expect("restored");
        assert!(hit.answer.is_none());
    }

    #[test]
    fn answers_share_the_row_budget() {
        let mut cache = PlanCache::with_row_budget(10);
        cache.store("a".into(), version(1), values_plan(3));
        cache.store("b".into(), version(1), values_plan(3));
        // Plans and answer of `b` together exceed the budget: refused,
        // and nothing is evicted for it.
        let big: Vec<Row> = (0..8).map(|i| row![i]).collect();
        assert!(!cache.attach_answer("b", &version(1), &big));
        assert_eq!(cache.len(), 2);
        // An answer that fits only without `a` evicts `a`, never `b`.
        let fits: Vec<Row> = (0..5).map(|i| row![i]).collect();
        assert!(cache.attach_answer("b", &version(1), &fits));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("a", &version(1)).is_none());
        assert_eq!(cache.embedded_row_count() + cache.answer_row_count(), 8);
        // Answer rows count when later stores make room.
        cache.store("c".into(), version(1), values_plan(4));
        assert_eq!(cache.len(), 1, "`b` and its answer were evicted");
        assert_eq!(cache.answer_row_count(), 0);
        assert_eq!(cache.embedded_row_count(), 4);
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
