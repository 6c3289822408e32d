//! Greedy cardinality-ordered join reordering.
//!
//! A maximal tree of [`Plan::Join`] nodes is flattened into its leaf
//! relations, equality edges (the `on` pairs), and residual predicates,
//! all expressed over *global* column positions (the columns of the
//! original join output, left to right). The chain is then rebuilt
//! left-deep: start from the leaf with the smallest estimated
//! cardinality, and repeatedly join the leaf whose addition is cheapest —
//! its estimated result, discounted when the executor probes the leaf
//! through an index (a scan, or a selection over a scan, whose join
//! columns include the primary key or are covered by a secondary index),
//! and otherwise charged the rows building it reads. A leaf with no edge
//! to the accumulator is a cross product and competes on the same terms,
//! so crossing a few demanded keys with a few worlds can beat hash-building
//! a large table. A final projection restores the original column order,
//! so the rewrite is bag-equivalent to the input plan.

use super::rules::{cols_of, join_and, split_and};
use super::stats::{equi_join_rows, estimate, RelEstimate, StatsCatalog};
use crate::catalog::Database;
use crate::error::Result;
use crate::exec::access::{base_table, resolve, select_path, Read};
use crate::expr::Expr;
use crate::plan::Plan;

/// A flattened join chain over global column positions.
struct Chain {
    /// Leaf plans in original order.
    leaves: Vec<Plan>,
    /// Global column offset of each leaf.
    offsets: Vec<usize>,
    /// Arity of each leaf.
    arities: Vec<usize>,
    /// Equality edges `(global_col, global_col)` from `on` lists.
    eqs: Vec<(usize, usize)>,
    /// Residual conjuncts over global columns.
    preds: Vec<Expr>,
    /// Total output arity.
    total: usize,
}

fn flatten(db: &Database, plan: Plan, start: usize, chain: &mut Chain) -> Result<usize> {
    match plan {
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => {
            let la = flatten(db, *left, start, chain)?;
            let ra = flatten(db, *right, start + la, chain)?;
            for &(lc, rc) in &on {
                chain.eqs.push((start + lc, start + la + rc));
            }
            if let Some(r) = residual {
                for c in split_and(&r.remap_cols(&|i| i + start)) {
                    chain.preds.push(c);
                }
            }
            Ok(la + ra)
        }
        leaf => {
            let arity = leaf.arity(db)?;
            chain.leaves.push(leaf);
            chain.offsets.push(start);
            chain.arities.push(arity);
            Ok(arity)
        }
    }
}

/// Rows held inline in `Values` leaves anywhere under `plan` — the rows
/// a restoring projection would force column pruning to re-materialize.
fn values_rows(plan: &Plan) -> usize {
    let own = match plan {
        Plan::Values { rows, .. } => rows.len(),
        _ => 0,
    };
    own + plan.children().into_iter().map(values_rows).sum::<usize>()
}

/// True iff the executor's index-nested-loop join probes this plan by
/// the given columns: the join rule of `exec::access`.
fn index_probeable(db: &Database, plan: &Plan, cols: &[usize]) -> bool {
    base_table(db, plan).is_some_and(|(t, _)| resolve(t, cols, Read::Join).is_some())
}

/// Rows a hash join reads to build `leaf` (estimated at `est` rows): a
/// selection over a base table that no index serves scans the whole table
/// and filters; any other leaf reads what it yields.
fn build_rows(db: &Database, leaf: &Plan, est: f64) -> f64 {
    match base_table(db, leaf) {
        Some((t, Some(predicate))) if select_path(t, predicate).is_none() => t.len() as f64,
        _ => est,
    }
}

/// Reorder every maximal join chain in the plan. Recurses into non-join
/// operators and into the join leaves themselves.
pub fn reorder_joins(db: &Database, catalog: &StatsCatalog, plan: Plan) -> Result<Plan> {
    match plan {
        Plan::Join { .. } => reorder_chain(db, catalog, plan),
        Plan::Scan { .. } | Plan::Values { .. } => Ok(plan),
        Plan::Selection { input, predicate } => Ok(Plan::Selection {
            input: Box::new(reorder_joins(db, catalog, *input)?),
            predicate,
        }),
        Plan::Projection { input, exprs } => Ok(Plan::Projection {
            input: Box::new(reorder_joins(db, catalog, *input)?),
            exprs,
        }),
        Plan::AntiJoin {
            left,
            right,
            on,
            residual,
        } => Ok(Plan::AntiJoin {
            left: Box::new(reorder_joins(db, catalog, *left)?),
            right: Box::new(reorder_joins(db, catalog, *right)?),
            on,
            residual,
        }),
        Plan::Distinct { input } => Ok(Plan::Distinct {
            input: Box::new(reorder_joins(db, catalog, *input)?),
        }),
        Plan::Union { inputs } => Ok(Plan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| reorder_joins(db, catalog, p))
                .collect::<Result<_>>()?,
        }),
    }
}

/// Reorder *inside* a chain leaf. A leaf can itself be a `Join` when
/// [`flatten`] kept it intact (its residual is not boolean-shaped and
/// must not be re-evaluated elsewhere); re-entering [`reorder_joins`] on
/// that node would flatten it to a single leaf again and recurse
/// forever, so only its inputs are reordered.
fn reorder_leaf(db: &Database, catalog: &StatsCatalog, leaf: Plan) -> Result<Plan> {
    match leaf {
        Plan::Join {
            left,
            right,
            on,
            residual,
        } => Ok(Plan::Join {
            left: Box::new(reorder_joins(db, catalog, *left)?),
            right: Box::new(reorder_joins(db, catalog, *right)?),
            on,
            residual,
        }),
        other => reorder_joins(db, catalog, other),
    }
}

fn reorder_chain(db: &Database, catalog: &StatsCatalog, plan: Plan) -> Result<Plan> {
    let mut chain = Chain {
        leaves: Vec::new(),
        offsets: Vec::new(),
        arities: Vec::new(),
        eqs: Vec::new(),
        preds: Vec::new(),
        total: 0,
    };
    chain.total = flatten(db, plan, 0, &mut chain)?;

    // Reorder inside each leaf first (nested chains under e.g. a distinct).
    for leaf in &mut chain.leaves {
        let taken = std::mem::replace(leaf, Plan::unit());
        *leaf = reorder_leaf(db, catalog, taken)?;
    }
    let n = chain.leaves.len();
    if n < 2 {
        return Ok(chain
            .leaves
            .pop()
            .expect("join chain has at least one leaf"));
    }

    let ests: Vec<RelEstimate> = chain.leaves.iter().map(|l| estimate(catalog, l)).collect();
    let builds: Vec<f64> = (0..n)
        .map(|i| build_rows(db, &chain.leaves[i], ests[i].rows))
        .collect();

    // Map a global column to its owning leaf and local position.
    let owner = |g: usize| -> (usize, usize) {
        for i in (0..n).rev() {
            if g >= chain.offsets[i] {
                return (i, g - chain.offsets[i]);
            }
        }
        unreachable!("column before first offset")
    };

    // --- greedy ordering ---------------------------------------------------
    // Cost of joining `cand` onto an accumulator covering `placed` with
    // `acc_rows` estimated rows, and the estimated rows it yields. The
    // cost is the output cardinality over the available equality edges,
    // discounted when the executor can turn the join into index probes,
    // and otherwise charged the rows building the candidate reads
    // ([`build_rows`]): a hash join builds its right side, a cross
    // product materializes it. Shared by the greedy search and the
    // whole-order costing below so the two are never inconsistent.
    let step_score = |placed: &[bool], acc_rows: f64, cand: usize| -> (f64, f64) {
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        let mut join_cols: Vec<usize> = Vec::new();
        for &(a, b) in &chain.eqs {
            let (oa, ca) = owner(a);
            let (ob, cb) = owner(b);
            let (acc_side, cand_col) = if placed[oa] && ob == cand {
                (a, cb)
            } else if placed[ob] && oa == cand {
                (b, ca)
            } else {
                continue;
            };
            let (acc_owner, acc_local) = owner(acc_side);
            let d_acc = ests[acc_owner]
                .distinct
                .get(acc_local)
                .copied()
                .unwrap_or(ests[acc_owner].rows);
            let d_cand = ests[cand]
                .distinct
                .get(cand_col)
                .copied()
                .unwrap_or(ests[cand].rows);
            pairs.push((d_acc, d_cand));
            join_cols.push(cand_col);
        }
        join_cols.sort_unstable();
        join_cols.dedup();
        let rows = equi_join_rows(acc_rows, ests[cand].rows, pairs);
        let score = if index_probeable(db, &chain.leaves[cand], &join_cols) {
            // The executor turns this join into index probes.
            rows * 0.9
        } else {
            rows + builds[cand]
        };
        (score, rows)
    };

    let mut placed = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // Start with the smallest leaf (ties: original order).
    let first = (0..n)
        .min_by(|&a, &b| {
            ests[a]
                .rows
                .partial_cmp(&ests[b].rows)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        })
        .expect("n >= 2");
    placed[first] = true;
    order.push(first);
    let mut acc_rows = ests[first].rows;

    while order.len() < n {
        // The cheapest next join; a small cross product competes with
        // connected joins that would build a large input.
        let mut best: Option<(f64, f64, usize)> = None;
        for cand in 0..n {
            if placed[cand] {
                continue;
            }
            let (score, rows) = step_score(&placed, acc_rows, cand);
            match best {
                Some((bs, _, bi)) if bs < score || (bs == score && bi < cand) => {}
                _ => best = Some((score, rows, cand)),
            }
        }
        let (_, rows, next) = best.expect("unplaced leaf exists");
        placed[next] = true;
        order.push(next);
        acc_rows = rows.max(1.0);
    }

    // --- keep the written order unless the reorder is strictly cheaper ----
    // The greedy search minimizes each step locally; it can land on an
    // order that is no cheaper than the one the query was written in —
    // and a changed order is not free: the restoring projection rebuilds
    // every output row, and the later column-pruning pass physically
    // re-materializes any `Values` leaves (the Datalog temp tables) the
    // projection pushes into. Cost both orders with the same per-step
    // metric and charge the rewrite those two costs explicitly; on a tie
    // the written order wins (the `qj3_first` regression: a chain whose
    // selective subgoal was already written first kept being rewritten).
    let cost_of = |order: &[usize]| -> (f64, f64) {
        let mut placed = vec![false; n];
        placed[order[0]] = true;
        let mut acc = ests[order[0]].rows;
        let mut total = 0.0;
        for &cand in &order[1..] {
            let (score, rows) = step_score(&placed, acc, cand);
            total += score;
            acc = rows.max(1.0);
            placed[cand] = true;
        }
        (total, acc)
    };
    /// Per-output-row cost of the restoring projection relative to
    /// producing a join row (a projection clone is far cheaper than a
    /// probe + concat).
    const PROJECTION_COST_PER_ROW: f64 = 0.05;
    /// Per-row cost of re-materializing a `Values` leaf when column
    /// pruning pushes the restoring projection into it.
    const VALUES_REMAT_COST_PER_ROW: f64 = 1.0;
    let written: Vec<usize> = (0..n).collect();
    let order = if order == written {
        order
    } else {
        let (greedy_cost, greedy_out) = cost_of(&order);
        let (written_cost, _) = cost_of(&written);
        let remat: f64 = chain.leaves.iter().map(|l| values_rows(l) as f64).sum();
        let penalty = PROJECTION_COST_PER_ROW * greedy_out + VALUES_REMAT_COST_PER_ROW * remat;
        if greedy_cost + penalty < written_cost {
            order
        } else {
            written
        }
    };

    // --- rebuild left-deep -------------------------------------------------
    // Global column -> position in the accumulator output.
    let mut pos: Vec<Option<usize>> = vec![None; chain.total];
    let mut remaining_eqs = chain.eqs.clone();
    let mut remaining_preds = chain.preds.clone();
    let mut acc: Option<Plan> = None;
    let mut acc_arity = 0usize;

    // Each leaf is consumed exactly once (order is a permutation): take
    // the leaves out of the chain so they move instead of cloning
    // materialized rows (`owner` keeps borrowing chain.offsets).
    let mut leaves = std::mem::take(&mut chain.leaves);
    for &leaf_idx in &order {
        let leaf = std::mem::replace(&mut leaves[leaf_idx], Plan::unit());
        let arity = chain.arities[leaf_idx];
        let offset = chain.offsets[leaf_idx];
        match acc {
            None => {
                for c in 0..arity {
                    pos[offset + c] = Some(c);
                }
                acc = Some(leaf);
                acc_arity = arity;
            }
            Some(prev) => {
                // Every equality edge with one endpoint placed and the
                // other in this leaf becomes a hash key.
                let mut on: Vec<(usize, usize)> = Vec::new();
                let mut intra: Vec<(usize, usize)> = Vec::new();
                remaining_eqs.retain(|&(a, b)| {
                    let (oa, ca) = owner(a);
                    let (ob, cb) = owner(b);
                    if oa == leaf_idx && ob == leaf_idx {
                        intra.push((ca, cb));
                        false
                    } else if ob == leaf_idx {
                        if let Some(p) = pos[a] {
                            on.push((p, cb));
                            false
                        } else {
                            true
                        }
                    } else if oa == leaf_idx {
                        if let Some(p) = pos[b] {
                            on.push((p, ca));
                            false
                        } else {
                            true
                        }
                    } else {
                        true
                    }
                });
                on.sort_unstable();
                on.dedup();
                // Equalities between two columns of the same leaf become a
                // selection on the leaf itself.
                let leaf = if intra.is_empty() {
                    leaf
                } else {
                    let conj: Vec<Expr> =
                        intra.iter().map(|&(a, b)| Expr::col_eq_col(a, b)).collect();
                    leaf.select(join_and(conj))
                };
                for c in 0..arity {
                    pos[offset + c] = Some(acc_arity + c);
                }
                acc = Some(Plan::Join {
                    left: Box::new(prev),
                    right: Box::new(leaf),
                    on,
                    residual: None,
                });
                acc_arity += arity;
            }
        }
        // Attach residual predicates whose columns are all available.
        let mut attach: Vec<Expr> = Vec::new();
        remaining_preds.retain(|p| {
            if cols_of(p).iter().all(|&c| pos[c].is_some()) {
                attach.push(p.remap_cols(&|c| pos[c].expect("checked")));
                false
            } else {
                true
            }
        });
        if !attach.is_empty() {
            acc = Some(
                acc.take()
                    .expect("accumulator built")
                    .select(join_and(attach)),
            );
        }
    }
    debug_assert!(remaining_eqs.is_empty(), "unplaced equality edges");
    debug_assert!(remaining_preds.is_empty(), "unplaced residual predicates");

    let acc = acc.expect("n >= 2 leaves placed");
    // Restore original column order.
    let exprs: Vec<Expr> = (0..chain.total)
        .map(|g| Expr::Col(pos[g].expect("all columns placed")))
        .collect();
    let identity = exprs
        .iter()
        .enumerate()
        .all(|(i, e)| matches!(e, Expr::Col(c) if *c == i));
    Ok(if identity { acc } else { acc.project(exprs) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::row;
    use crate::row::Row;
    use crate::schema::TableSchema;

    /// Big `V`, small `Probe`, medium keyed `R` — enough skew that greedy
    /// ordering matters.
    fn db() -> Database {
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid", "s"]))
            .unwrap();
        v.create_index("by_wid", &["wid"]).unwrap();
        for i in 0..400i64 {
            v.insert(row![i % 20, i % 100, if i % 2 == 0 { "+" } else { "-" }])
                .unwrap();
        }
        let r = db
            .create_table(TableSchema::with_key("R", &["tid", "val"]))
            .unwrap();
        for i in 0..100i64 {
            r.insert(row![i, format!("v{i}").as_str()]).unwrap();
        }
        let probe = db
            .create_table(TableSchema::keyless("Probe", &["w"]))
            .unwrap();
        probe.insert(row![3]).unwrap();
        probe.insert(row![7]).unwrap();
        db
    }

    fn assert_equivalent(db: &Database, original: &Plan, rewritten: &Plan) {
        let mut a = execute(db, original).unwrap();
        let mut b = execute(db, rewritten).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "reorder changed semantics");
    }

    #[test]
    fn big_join_small_gets_swapped() {
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        // V ⋈ Probe written big-first; greedy starts from Probe.
        let original = Plan::scan("V").join(Plan::scan("Probe"), vec![(0, 0)]);
        let reordered = reorder_joins(&db, &catalog, original.clone()).unwrap();
        // Output column order restored by a projection.
        let Plan::Projection { input, .. } = &reordered else {
            panic!("expected restoring projection, got {reordered:?}");
        };
        let Plan::Join { left, .. } = input.as_ref() else {
            panic!("expected join, got {input:?}");
        };
        assert_eq!(left.as_ref(), &Plan::scan("Probe"));
        assert_equivalent(&db, &original, &reordered);
    }

    #[test]
    fn three_way_chain_starts_small_and_follows_edges() {
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        // (V ⋈ R) ⋈ Probe — the greedy order should be Probe, V (indexed
        // on wid), then R.
        let original = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .join(Plan::scan("Probe"), vec![(0, 0)]);
        let reordered = reorder_joins(&db, &catalog, original.clone()).unwrap();
        fn leftmost(p: &Plan) -> &Plan {
            match p {
                Plan::Join { left, .. } => leftmost(left),
                Plan::Projection { input, .. } | Plan::Selection { input, .. } => leftmost(input),
                other => other,
            }
        }
        assert_eq!(leftmost(&reordered), &Plan::scan("Probe"));
        assert_equivalent(&db, &original, &reordered);
    }

    #[test]
    fn residuals_and_cross_joins_survive() {
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        let original = Plan::scan("Probe").join_where(
            Plan::scan("R"),
            vec![],
            Expr::cmp(crate::expr::CmpOp::Lt, Expr::Col(0), Expr::Col(1)),
        );
        let reordered = reorder_joins(&db, &catalog, original.clone()).unwrap();
        assert_equivalent(&db, &original, &reordered);
    }

    #[test]
    fn reorder_is_deterministic() {
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        let original = Plan::scan("V")
            .join(Plan::scan("R"), vec![(1, 0)])
            .join(Plan::scan("Probe"), vec![(0, 0)]);
        let a = reorder_joins(&db, &catalog, original.clone()).unwrap();
        let b = reorder_joins(&db, &catalog, original).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn qj3_first_written_order_is_kept_when_not_strictly_cheaper() {
        // The opt_onoff `qj3_first` regression: the selective subgoal is
        // *already written first* and the remaining wide subgoals tie on
        // estimated cost. The greedy search used to rewrite the chain
        // anyway (starting from whichever wide leaf estimated smaller),
        // paying a restoring projection and — because Datalog temp
        // tables are `Values` leaves — a physical re-materialization in
        // the pruning pass, for a plan that was not strictly cheaper.
        // The written order must now survive untouched.
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        let wide1: Vec<Row> = (0..90i64).map(|i| row![i % 30, i]).collect();
        let wide2: Vec<Row> = (0..80i64).map(|i| row![i % 30, i + 1000]).collect();
        let original = Plan::Values {
            arity: 2,
            rows: wide1,
        }
        .join(
            Plan::Values {
                arity: 2,
                rows: wide2,
            },
            vec![(0, 0)],
        );
        let reordered = reorder_joins(&db, &catalog, original.clone()).unwrap();
        assert_eq!(
            reordered, original,
            "written order must be kept when the reorder is not strictly cheaper"
        );
        assert_equivalent(&db, &original, &reordered);
    }

    #[test]
    fn equal_cost_scan_chains_keep_the_written_order() {
        // Two keyless scans with no usable index: both directions of the
        // join cost the same, so the rewrite (with its restoring
        // projection) must not happen even though the right leaf has the
        // smaller estimate.
        let mut db = Database::new();
        let big = db
            .create_table(TableSchema::keyless("Big", &["k", "x"]))
            .unwrap();
        for i in 0..100i64 {
            big.insert(row![i % 25, i]).unwrap();
        }
        let small = db
            .create_table(TableSchema::keyless("Small", &["k", "y"]))
            .unwrap();
        for i in 0..80i64 {
            small.insert(row![i % 25, i]).unwrap();
        }
        let catalog = StatsCatalog::snapshot(&db);
        let original = Plan::scan("Big").join(Plan::scan("Small"), vec![(0, 0)]);
        let reordered = reorder_joins(&db, &catalog, original.clone()).unwrap();
        assert_eq!(reordered, original);
    }

    #[test]
    fn a_small_cross_product_beats_building_a_big_input() {
        // magic(k) ⋈ V(wid, tid, key) on key, V ⋈ E(w) on wid. Joining V
        // on the key alone cannot probe `by_wid_key` and would hash-build
        // all of V; crossing the 5 demanded keys with the 20 worlds first
        // lets V be probed on (wid, key) instead.
        let mut db = Database::new();
        let v = db
            .create_table(TableSchema::keyless("V", &["wid", "tid", "key"]))
            .unwrap();
        v.create_index("by_wid_key", &["wid", "key"]).unwrap();
        for i in 0..4000i64 {
            v.insert(row![i % 20, i, i % 1000]).unwrap();
        }
        let e = db.create_table(TableSchema::keyless("E", &["w"])).unwrap();
        for w in 0..20i64 {
            e.insert(row![w]).unwrap();
        }
        let catalog = StatsCatalog::snapshot(&db);
        let magic = Plan::Values {
            arity: 1,
            rows: (0..5i64).map(|k| row![k * 7]).collect(),
        };
        let original = magic
            .join(Plan::scan("V"), vec![(0, 2)])
            .join(Plan::scan("E"), vec![(1, 0)]);
        let reordered = reorder_joins(&db, &catalog, original.clone()).unwrap();
        fn v_join_cols(p: &Plan) -> Option<Vec<usize>> {
            match p {
                Plan::Join {
                    left, right, on, ..
                } => {
                    if right.as_ref() == &Plan::scan("V") {
                        let mut cols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
                        cols.sort_unstable();
                        return Some(cols);
                    }
                    v_join_cols(left)
                }
                Plan::Projection { input, .. } | Plan::Selection { input, .. } => {
                    v_join_cols(input)
                }
                _ => None,
            }
        }
        assert_eq!(
            v_join_cols(&reordered),
            Some(vec![0, 2]),
            "V must be joined last, on (wid, key): {reordered:?}"
        );
        assert_equivalent(&db, &original, &reordered);
    }

    #[test]
    fn nested_chains_under_barriers_reorder_too() {
        let db = db();
        let catalog = StatsCatalog::snapshot(&db);
        let inner = Plan::scan("V")
            .join(Plan::scan("Probe"), vec![(0, 0)])
            .distinct();
        let reordered = reorder_joins(&db, &catalog, inner.clone()).unwrap();
        let Plan::Distinct { input } = &reordered else {
            panic!("expected distinct, got {reordered:?}");
        };
        assert!(matches!(input.as_ref(), Plan::Projection { .. }));
        assert_equivalent(&db, &inner, &reordered);
    }
}
