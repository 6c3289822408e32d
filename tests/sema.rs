//! Soundness and invariant coverage for the static-analysis layer
//! (`beliefdb_storage::sema`).
//!
//! Three properties are fuzzed here, each a *semantic* guarantee rather
//! than a golden-output check:
//!
//! 1. **Lint soundness** — a rule the linter flags as provably empty
//!    (`BD004`) must actually derive zero rows when evaluated. The
//!    contradiction analysis is allowed to miss contradictions (it
//!    ignores what it cannot model) but never to flag a satisfiable
//!    rule.
//! 2. **Lint determinism** — the full diagnostic rendering for a
//!    program is byte-identical across runs and across freshly built
//!    databases; diagnostics are stable API surfaced in shells and CI.
//! 3. **Verifier completeness over real plans** — every plan the
//!    generator produces, before and after the full optimizer pipeline,
//!    passes `verify_plan` with zero violations (and with the verifier
//!    armed, `optimize` itself re-checks after every pass). Malformed
//!    plans and tampered magic programs are rejected with the right
//!    `BD10x` code.
//!
//! A fourth, program order, is checked against the evaluator: over
//! seeded permutations of the Table 2 programs, raw and magic-rewritten,
//! `lint_program` reports `BD002` exactly when `Evaluator::run` rejects
//! the program, and every accepted permutation keeps the answer.

mod common;

use beliefdb::gen::generate_bdms;
use beliefdb::gen::scenarios::table2_config;
use beliefdb::sql::Session;
use beliefdb::storage::datalog::{Atom, BodyLit, CmpLit, Evaluator, Program, Rule, Term};
use beliefdb::storage::opt::magic::{self, MAGIC_PREFIX};
use beliefdb::storage::sema::{self, codes};
use beliefdb::storage::{
    execute, lint_program, optimize, row, CmpOp, Database, Expr, Plan, StorageError, TableSchema,
    Value,
};
use common::{gen_plan, plan_db};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Fuzzed single-rule programs over the plan_db tables
// ---------------------------------------------------------------------------

const TABLES: [(&str, usize); 3] = [("Users", 2), ("E", 3), ("V", 3)];

/// A random safe single-rule program: 1–2 positive atoms (variables
/// shared sometimes, forming joins), then 1–4 comparison literals over
/// the bound variables with narrow constant ranges — narrow enough that
/// contradictory combinations (`x = 1, x = 2`; `x < 2, x > 4`; `x < x`)
/// arise at a healthy rate.
fn gen_program(rng: &mut StdRng) -> Program {
    let mut body = Vec::new();
    let mut vars: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..3usize) {
        let (table, arity) = TABLES[rng.gen_range(0..TABLES.len())];
        let terms: Vec<Term> = (0..arity)
            .map(|_| {
                if !vars.is_empty() && rng.gen_bool(0.3) {
                    Term::var(vars[rng.gen_range(0..vars.len())].clone())
                } else {
                    let name = format!("v{}", vars.len());
                    vars.push(name.clone());
                    Term::var(name)
                }
            })
            .collect();
        body.push(BodyLit::Pos(Atom::new(table, terms)));
    }
    for _ in 0..rng.gen_range(1..5usize) {
        let left = Term::var(vars[rng.gen_range(0..vars.len())].clone());
        let op = [
            CmpOp::Eq,
            CmpOp::Eq, // weight equality up: it drives contradictions
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..7usize)];
        let right = if rng.gen_bool(0.8) {
            Term::val(match rng.gen_range(0..4u32) {
                0 | 1 => Value::int(rng.gen_range(0..6u32) as i64),
                2 => Value::str("+"),
                _ => Value::str("-"),
            })
        } else {
            Term::var(vars[rng.gen_range(0..vars.len())].clone())
        };
        body.push(BodyLit::Cmp(CmpLit { left, op, right }));
    }
    let head_terms: Vec<Term> = vars.iter().map(Term::var).collect();
    Program {
        rules: vec![Rule {
            head: Atom::new("ans", head_terms),
            body,
        }],
    }
}

#[test]
fn flagged_empty_rules_derive_zero_rows() {
    let db = plan_db();
    let mut rng = StdRng::seed_from_u64(0x5E4A_0001);
    let mut flagged = 0usize;
    for i in 0..250 {
        let program = gen_program(&mut rng);
        let diags = lint_program(&db, &program);
        // The generator only builds safe rules; BD001 here is a lint bug.
        assert!(
            diags.iter().all(|d| d.code != codes::UNSAFE_RULE),
            "iteration {i}: spurious safety error on {program}"
        );
        if diags.iter().any(|d| d.code == codes::PROVABLY_EMPTY) {
            flagged += 1;
            let mut ev = Evaluator::new(&db);
            ev.run(&program).unwrap();
            let rows = ev.relation("ans").unwrap_or_default();
            assert!(
                rows.is_empty(),
                "iteration {i}: linter flagged provably-empty but evaluation derived \
                 {} row(s) for {program}",
                rows.len()
            );
        }
    }
    // The property above is vacuous if nothing is ever flagged; the
    // narrow constant ranges make contradictions common.
    assert!(
        flagged >= 25,
        "only {flagged}/250 programs flagged provably-empty — generator or analysis drifted"
    );
}

#[test]
fn lint_output_is_byte_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x5E4A_0002);
    let corpus: Vec<Program> = (0..120).map(|_| gen_program(&mut rng)).collect();
    let render = |db: &Database| -> String {
        let mut out = String::new();
        for p in &corpus {
            for d in lint_program(db, p) {
                out.push_str(&d.to_string());
                out.push('\n');
            }
        }
        out
    };
    // Same corpus, two independently built databases: identical bytes.
    let first = render(&plan_db());
    let second = render(&plan_db());
    assert_eq!(first, second);
    assert!(!first.is_empty());
}

// ---------------------------------------------------------------------------
// The plan verifier over the fuzzed plan corpus
// ---------------------------------------------------------------------------

#[test]
fn verifier_finds_zero_violations_across_optimized_plan_corpus() {
    sema::set_verify(true);
    let db = plan_db();
    let mut rng = StdRng::seed_from_u64(0x5E4A_0003);
    for i in 0..300 {
        let (plan, _) = gen_plan(&mut rng, 4);
        if let Err(d) = sema::verify_plan(&db, &plan) {
            panic!("iteration {i}: generated plan rejected: {d}");
        }
        // With the verifier armed, optimize() re-checks after every
        // rewrite pass; a violation would surface as an error naming
        // the pass.
        let optimized = optimize(&db, plan).unwrap();
        if let Err(d) = sema::verify_plan(&db, &optimized) {
            panic!("iteration {i}: optimized plan rejected: {d}");
        }
    }
    sema::reset_verify();
}

#[test]
fn verifier_rejects_malformed_plans_with_bd101() {
    let db = plan_db();
    // Out-of-range selection column.
    let bad = Plan::scan("V").select(Expr::col_eq_lit(9, 1i64));
    assert_eq!(
        sema::verify_plan(&db, &bad).unwrap_err().code,
        codes::PLAN_SHAPE
    );
    // Union inputs of different arities.
    let bad = Plan::Union {
        inputs: vec![Plan::scan("Users"), Plan::scan("V")],
    };
    assert_eq!(
        sema::verify_plan(&db, &bad).unwrap_err().code,
        codes::PLAN_SHAPE
    );
    // Join key beyond the left child's arity.
    let bad = Plan::scan("Users").join(Plan::scan("V"), vec![(5, 0)]);
    assert_eq!(
        sema::verify_plan(&db, &bad).unwrap_err().code,
        codes::PLAN_SHAPE
    );
    // Values rows disagreeing with the declared arity.
    let bad = Plan::Values {
        arity: 2,
        rows: vec![row![1i64]],
    };
    assert_eq!(
        sema::verify_plan(&db, &bad).unwrap_err().code,
        codes::PLAN_SHAPE
    );
    // Scan of a relation that does not exist.
    let bad = Plan::scan("Ghost");
    assert_eq!(
        sema::verify_plan(&db, &bad).unwrap_err().code,
        codes::PLAN_SHAPE
    );
}

// ---------------------------------------------------------------------------
// Magic-guard verification
// ---------------------------------------------------------------------------

/// `hop(x, y) :- e(x, z), e(z, y).  ans(y) :- hop(0, y).` — the bound
/// probe makes the magic rewrite produce a seed, a guarded restricted
/// copy, and an answer rule over the copy.
fn bound_hop_program() -> Program {
    use beliefdb::storage::datalog::dsl::*;
    Program {
        rules: vec![
            rule(
                "hop",
                vec![v("x"), v("y")],
                vec![
                    pos("e", vec![v("x"), v("z")]),
                    pos("e", vec![v("z"), v("y")]),
                ],
            ),
            rule("ans", vec![v("y")], vec![pos("hop", vec![c(0i64), v("y")])]),
        ],
    }
}

#[test]
fn magic_rewrites_verify_clean_and_tampering_is_caught() {
    let program = bound_hop_program();
    // Untouched programs trivially pass.
    assert!(sema::verify_magic(&program).is_empty());
    let rewritten = magic::rewrite(&program);
    assert_ne!(rewritten, program, "probe should trigger the rewrite");
    assert!(
        sema::verify_magic(&rewritten).is_empty(),
        "{:?}",
        sema::verify_magic(&rewritten)
    );

    // Tamper 1: move a guard off position 0 in a restricted copy.
    let mut tampered = rewritten.clone();
    let victim = tampered
        .rules
        .iter_mut()
        .find(|r| {
            !r.head.relation.starts_with(MAGIC_PREFIX)
                && r.body.len() >= 2
                && matches!(r.body.first(),
                    Some(BodyLit::Pos(a)) if a.relation.starts_with(MAGIC_PREFIX))
        })
        .expect("rewrite should produce a guarded restricted copy");
    victim.body.swap(0, 1);
    let diags = sema::verify_magic(&tampered);
    assert!(
        diags.iter().any(|d| d.code == codes::MAGIC_GUARD),
        "misplaced guard not caught: {diags:?}"
    );

    // Tamper 2: negate a magic guard.
    let mut tampered = rewritten.clone();
    for r in &mut tampered.rules {
        for lit in &mut r.body {
            if let BodyLit::Pos(a) = lit {
                if a.relation.starts_with(MAGIC_PREFIX) {
                    *lit = BodyLit::Neg(a.clone());
                }
            }
        }
    }
    let diags = sema::verify_magic(&tampered);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::MAGIC_GUARD && d.message.contains("negation")),
        "negated guard not caught: {diags:?}"
    );

    // Tamper 3: read a demand relation nobody derives.
    let mut tampered = rewritten.clone();
    tampered
        .rules
        .retain(|r| !r.head.relation.starts_with(MAGIC_PREFIX));
    let diags = sema::verify_magic(&tampered);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::MAGIC_GUARD && d.message.contains("never derived")),
        "undefined demand relation not caught: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Structured codes on the error path
// ---------------------------------------------------------------------------

#[test]
fn stratification_and_reserved_name_errors_carry_codes() {
    use beliefdb::storage::datalog::dsl::*;
    let mut db = Database::new();
    {
        let e = db
            .create_table(TableSchema::keyless("e", &["src", "dst"]))
            .unwrap();
        e.insert(row![0, 1]).unwrap();
        e.insert(row![1, 2]).unwrap();
    }
    // win(x) :- e(x, y), ¬win(y). — reads its own head.
    let program = Program {
        rules: vec![rule(
            "win",
            vec![v("x")],
            vec![pos("e", vec![v("x"), v("y")]), neg("win", vec![v("y")])],
        )],
    };
    let err = Evaluator::new(&db).run(&program).unwrap_err();
    assert_eq!(err.code(), Some("BD002"));
    assert!(
        err.to_string().contains("rule for `win` reads `win`"),
        "{err}"
    );
    assert!(matches!(err, StorageError::DatalogError(_)));

    // The linter reports the same condition without evaluating.
    let diags = lint_program(&db, &program);
    assert!(
        diags
            .iter()
            .any(|d| d.code == codes::READ_BEFORE_DEFINED && d.is_error()),
        "{diags:?}"
    );

    // Reserved-name rejection carries BD010 on the ReservedName variant.
    let err = db
        .create_table(TableSchema::keyless("sys.metrics", &["x"]))
        .unwrap_err();
    assert_eq!(err.code(), Some("BD010"));
    assert!(matches!(err, StorageError::ReservedName(_)));
}

// ---------------------------------------------------------------------------
// Program order: the linter and the evaluator agree
// ---------------------------------------------------------------------------

/// `program`'s rules in a seeded random order (Fisher–Yates).
fn permuted(program: &Program, rng: &mut StdRng) -> Program {
    let mut rules = program.rules.clone();
    for i in (1..rules.len()).rev() {
        rules.swap(i, rng.gen_range(0..i + 1));
    }
    Program { rules }
}

#[test]
fn linter_and_evaluator_agree_on_program_order() {
    let (bdms, _) = generate_bdms(&table2_config(300, 42)).unwrap();
    let db = bdms.internal().database();
    let mut rng = StdRng::seed_from_u64(0x0bd0_0002);
    let (mut rejected, mut accepted) = (0, 0);
    for (name, q) in beliefdb_bench::table2_queries(&bdms).unwrap() {
        let translated = bdms.translate(&q).unwrap();
        let magicked = magic::rewrite_checked(&translated.program).unwrap();
        for program in [&translated.program, &magicked] {
            let mut ev = Evaluator::new(db);
            ev.run(program).unwrap();
            let mut want = ev.relation(&translated.answer).unwrap().to_vec();
            want.sort();
            for _ in 0..12 {
                let perm = permuted(program, &mut rng);
                let lint_bd002 = lint_program(db, &perm)
                    .iter()
                    .any(|d| d.code == codes::READ_BEFORE_DEFINED && d.is_error());
                let mut ev = Evaluator::new(db);
                match ev.run(&perm) {
                    Err(err) => {
                        assert_eq!(err.code(), Some("BD002"), "{name}: {err}\n{perm}");
                        assert!(lint_bd002, "{name}: only the evaluator rejects\n{perm}");
                        rejected += 1;
                    }
                    Ok(_) => {
                        assert!(!lint_bd002, "{name}: only the linter rejects\n{perm}");
                        let mut got = ev.relation(&translated.answer).unwrap().to_vec();
                        got.sort();
                        assert_eq!(got, want, "{name}: answer moved\n{perm}");
                        accepted += 1;
                    }
                }
            }
        }
    }
    assert!(
        rejected > 0 && accepted > 0,
        "{rejected} rejected, {accepted} accepted"
    );
}

// ---------------------------------------------------------------------------
// The provably-empty optimizer fold
// ---------------------------------------------------------------------------

#[test]
fn contradictory_selection_folds_to_empty_values() {
    let db = plan_db();
    let cases = vec![
        // x = 1 AND x = 2
        Expr::and(vec![Expr::col_eq_lit(0, 1i64), Expr::col_eq_lit(0, 2i64)]),
        // x < 2 AND x > 4 — empty range
        Expr::and(vec![
            Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(2i64)),
            Expr::cmp(CmpOp::Gt, Expr::Col(0), Expr::lit(4i64)),
        ]),
        // x < x
        Expr::cmp(CmpOp::Lt, Expr::Col(1), Expr::Col(1)),
    ];
    for pred in cases {
        let plan = Plan::scan("V").select(pred);
        let optimized = optimize(&db, plan.clone()).unwrap();
        assert!(
            matches!(&optimized, Plan::Values { rows, .. } if rows.is_empty()),
            "expected empty Values, got {optimized:?}"
        );
        // The fold must agree with brute-force execution.
        assert!(execute(&db, &plan).unwrap().is_empty());
        assert!(execute(&db, &optimized).unwrap().is_empty());
    }
    // A satisfiable conjunction must NOT fold away.
    let plan = Plan::scan("V").select(Expr::and(vec![
        Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::lit(2i64)),
        Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::lit(4i64)),
    ]));
    let optimized = optimize(&db, plan.clone()).unwrap();
    let mut a = execute(&db, &plan).unwrap();
    let mut b = execute(&db, &optimized).unwrap();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

// ---------------------------------------------------------------------------
// The SQL surface: Session::lint, EXPLAIN annotations
// ---------------------------------------------------------------------------

fn sql_session() -> Session {
    use beliefdb::core::ExternalSchema;
    let schema = ExternalSchema::new().with_relation("Samples", &["sid", "category", "origin"]);
    let mut s = Session::new(schema).unwrap();
    s.add_user("Ana").unwrap();
    s.execute("insert into Samples values ('a','fungus','soil')")
        .unwrap();
    s.execute("insert into Samples values ('b','moss','rock')")
        .unwrap();
    s
}

#[test]
fn session_lint_reports_contradictions_and_stays_deterministic() {
    let s = sql_session();
    // A healthy query lints without errors.
    let diags = s
        .lint("select S.sid from Samples as S where S.category = 'moss'")
        .unwrap();
    assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");

    // A self-contradictory WHERE is flagged BD004 (whether the lowerer
    // catches the contradiction or the program linter does).
    let sql = "select S.sid from Samples as S where S.sid = 'a' and S.sid = 'b'";
    let diags = s.lint(sql).unwrap();
    assert!(
        diags.iter().any(|d| d.code == codes::PROVABLY_EMPTY),
        "{diags:?}"
    );
    // ...and the query really is empty.
    assert!(s.query(sql).unwrap().rows().is_empty());

    // Deterministic rendering across repeated calls and fresh sessions.
    let rendered = |s: &Session| {
        s.lint(sql)
            .unwrap()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = rendered(&s);
    assert_eq!(first, rendered(&s));
    assert_eq!(first, rendered(&sql_session()));

    // sys.* scans have nothing to lint.
    assert!(s.lint("select * from sys.tables").unwrap().is_empty());

    // Non-SELECT statements are rejected, not silently accepted.
    assert!(s.lint("insert into Samples values ('c','x','y')").is_err());
}

#[test]
fn explain_annotates_contradictory_queries() {
    let s = sql_session();
    let text = s
        .explain("select S.sid from Samples as S where S.sid = 'a' and S.sid = 'b'")
        .unwrap();
    assert!(text.contains("BD004"), "{text}");
    // A clean query's EXPLAIN carries no error diagnostics.
    let text = s
        .explain("select S.sid from Samples as S where S.sid = 'a'")
        .unwrap();
    assert!(!text.contains("error[BD"), "{text}");
}

#[test]
fn session_verify_toggle_round_trips() {
    let mut s = sql_session();
    s.set_verify(true);
    assert!(s.verify_enabled());
    // Queries still run with the verifier armed.
    assert_eq!(
        s.query("select S.sid from Samples as S where S.category = 'moss'")
            .unwrap()
            .rows()
            .len(),
        1
    );
    sema::reset_verify();
}
