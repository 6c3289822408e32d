//! An interactive BeliefSQL shell over the NatureMapping schema.
//!
//! ```text
//! cargo run --example shell
//! ```
//!
//! Meta-commands: `\user <name>` registers a user, `\stats` prints the
//! unified introspection view (sizes, plan cache, WAL, engine
//! counters), `\worlds` lists the belief worlds, `\profile <select>`
//! runs `EXPLAIN ANALYZE`, `\metrics` dumps the metrics registry,
//! `\statements` shows the top statement fingerprints by cumulative
//! time, `\slowlog` shows captured slow statements, `\open <dir>`
//! switches to a durable database (recovering it if it exists,
//! creating it otherwise, and closing the one it leaves), `\checkpoint`
//! snapshots it, `\wal` prints the WAL section of `\stats`, `\help`,
//! `\quit` (which closes a durable database: a log that has outgrown its
//! snapshot is folded into one). Everything else is
//! parsed as BeliefSQL — including scans of the `sys.*` system catalog
//! (`sys.metrics`, `sys.statements`, `sys.tables`, `sys.plan_cache`,
//! `sys.slowlog`, `sys.wal`), which the introspection meta-commands
//! are thin renderers over.
//!
//! Example session:
//!
//! ```text
//! beliefdb> \user Alice
//! beliefdb> \user Bob
//! beliefdb> insert into Sightings values ('s1','Alice','crow','6-14-08','Lake Placid')
//! beliefdb> insert into BELIEF 'Bob' Sightings values ('s1','Alice','raven','6-14-08','Lake Placid')
//! beliefdb> select U.name, S.species from Users as U, BELIEF U.uid Sightings as S
//! ```

use beliefdb::core::ExternalSchema;
use beliefdb::sql::Session;
use beliefdb::storage::{Row, Value};
use std::io::{BufRead, Write};

fn naturemapping() -> ExternalSchema {
    ExternalSchema::new()
        .with_relation("Sightings", &["sid", "uid", "species", "date", "location"])
        .with_relation("Comments", &["cid", "comment", "sid"])
}

/// Parse a byte-size spec: `Some(None)` = unlimited (`off`/`unlimited`),
/// `Some(Some(n))` = n bytes (`k`/`m`/`g` suffixes), `None` = unparsable.
fn parse_bytes(spec: &str) -> Option<Option<usize>> {
    let spec = spec.trim().to_ascii_lowercase();
    if spec == "off" || spec == "unlimited" || spec == "none" {
        return Some(None);
    }
    let (digits, mult) = match spec.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match spec.as_bytes()[spec.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (spec.as_str(), 1),
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .map(Some)
}

/// Run a `sys.*` catalog scan and collect its rows; the introspection
/// meta-commands below are thin renderers over these queries, so they
/// show exactly what any client would get from the same SELECT.
fn sys_rows(session: &Session, sql: &str) -> Vec<Row> {
    match session.query(sql) {
        Ok(result) => result.rows().to_vec(),
        Err(e) => {
            println!("error: {e}");
            Vec::new()
        }
    }
}

/// A counter cell from a `sys.*` row.
fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Int(i) => *i as u64,
        _ => 0,
    }
}

/// The WAL section of `\stats` (and the whole of its `\wal` alias),
/// rendered from `sys.wal` (empty for in-memory sessions).
fn print_wal(session: &Session) {
    match sys_rows(session, "select * from sys.wal").first() {
        Some(row) => {
            let v = row.values();
            println!(
                "wal: {} segment(s), {} frame(s), {} byte(s)",
                v[0], v[1], v[2]
            );
            println!(
                "     next lsn {}, snapshot covers < {}, {} checkpoint(s) this session",
                v[3], v[4], v[5]
            );
            println!(
                "     snapshot {} byte(s), last checkpoint {} us",
                v[8], v[9]
            );
        }
        None => println!("in-memory session (use \\open <dir> for durability)"),
    }
}

/// Dump the metrics registry from a `sys.metrics` scan, plus the
/// query-latency histogram summary (a distribution, so it lives on the
/// snapshot API rather than in the counter relation). `nonzero_only`
/// hides untouched counters (the `\stats` view); `\metrics` shows all.
fn print_metrics(session: &Session, nonzero_only: bool) {
    for row in sys_rows(session, "select name, value from sys.metrics") {
        let v = row.values();
        if !nonzero_only || as_u64(&v[1]) > 0 {
            println!("  {:<24} {:>10}", v[0].to_string(), v[1].to_string());
        }
    }
    let snap = session.bdms().metrics();
    let n = snap.latency_count();
    if n > 0 {
        println!(
            "  query latency: n={n}, mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms",
            snap.latency_mean_nanos() as f64 / 1e6,
            snap.latency_quantile_nanos(0.50) as f64 / 1e6,
            snap.latency_quantile_nanos(0.99) as f64 / 1e6,
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new(naturemapping())?;

    println!("beliefdb shell — BeliefSQL over Sightings/Comments. \\help for help.");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("beliefdb> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            let mut parts = rest.split_whitespace();
            match parts.next() {
                Some("quit") | Some("q") => break,
                Some("help") => {
                    println!("  \\user <name>   register a user");
                    println!("  \\stats         unified introspection: representation sizes,");
                    println!("                 plan-cache counters, WAL state, engine counters");
                    println!("  \\worlds        list belief worlds");
                    println!(
                        "  \\explain <q>   show the BCQ + Datalog translation + physical plans"
                    );
                    println!("  \\lint <q>      static analysis: lint the SELECT's Datalog");
                    println!("                 translation without running it (safety, types,");
                    println!("                 provably-empty conditions) as [BDxxx] diagnostics");
                    println!("  \\profile <q>   EXPLAIN ANALYZE: run the SELECT and annotate each");
                    println!("                 plan operator with actual rows/chunks, kernel vs");
                    println!("                 fallback rows, spill bytes/partitions, and time");
                    println!("  \\metrics       dump the full metrics registry (all counters +");
                    println!("                 query-latency histogram); renders sys.metrics");
                    println!("  \\statements [n]");
                    println!("                 top n statement fingerprints by cumulative time");
                    println!("                 (default 10); renders sys.statements");
                    println!("  \\slowlog       show captured slow statements (spans + profiles);");
                    println!("                 renders sys.slowlog");
                    println!("  \\set memory <n[k|m|g]|off>");
                    println!("                 per-query memory budget for joins and");
                    println!("                 distincts — past it they spill to disk");
                    println!("                 (grace hash join, distinct partitioning)");
                    println!("  \\set magic <on|off>");
                    println!("                 magic-sets / SIP rewrite: evaluate bound belief");
                    println!("                 queries demand-driven (on by default; off runs");
                    println!("                 the unrewritten Algorithm 1 rule stack)");
                    println!("  \\set verify <on|off>");
                    println!("                 plan verifier: re-check structural invariants");
                    println!("                 after every optimizer pass (on by default in");
                    println!("                 debug builds, off in release)");
                    println!("  \\set slowlog <ms|off>");
                    println!("                 capture statements slower than <ms> into the");
                    println!("                 slow-query log (with spans + full profile);");
                    println!("                 \\set alone shows the current settings");
                    println!("  \\open <dir>    switch to a durable database in <dir> (recover it");
                    println!("                 if present, create it with the NatureMapping");
                    println!("                 schema otherwise); mutations are WAL-logged.");
                    println!("                 The database left is closed as \\quit closes it");
                    println!("  \\checkpoint    snapshot the durable database, truncate the WAL");
                    println!("  \\wal           the WAL section of \\stats on its own");
                    println!("  \\quit (\\q)     close the database and exit; a durable WAL");
                    println!("                 larger than the last snapshot is folded into");
                    println!("                 one new snapshot and deleted, a smaller one kept");
                    println!("  system catalog: sys.metrics, sys.statements, sys.tables,");
                    println!("                 sys.plan_cache, sys.slowlog, sys.wal are ordinary");
                    println!("                 read-only relations — select from them directly,");
                    println!("                 e.g. select * from sys.statements");
                    println!("                      order by total_time_ns desc limit 5");
                    println!("  anything else is BeliefSQL, e.g.:");
                    println!("    insert into BELIEF 'Bob' not Sightings values (...)");
                    println!(
                        "    select U.name, S.species from Users as U, BELIEF U.uid Sightings as S"
                    );
                    println!(
                        "    explain analyze select S.species from BELIEF 'Bob' Sightings as S"
                    );
                }
                Some("user") => match parts.next() {
                    Some(name) => match session.add_user(name) {
                        Ok(id) => println!("registered user {name} (uid {id})"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: \\user <name>"),
                },
                Some("stats") => {
                    let stats = session.bdms().stats();
                    // The world relations are counted, not stored: the
                    // world directory holds them.
                    let world_rows: usize = (stats.per_table.iter())
                        .filter(|(name, _)| ["D", "E", "S"].contains(&name.as_str()))
                        .map(|(_, rows)| rows)
                        .sum();
                    println!(
                        "{} tuples, {} worlds, {} users ({world_rows} of the tuples in D, E \
                         and S, which the world directory holds)",
                        stats.total_tuples, stats.worlds, stats.users
                    );
                    for row in sys_rows(&session, "select name, rows from sys.tables order by name")
                    {
                        let v = row.values();
                        println!("  {:<20} {:>6}", v[0].to_string(), v[1].to_string());
                    }
                    if let Some(row) = sys_rows(&session, "select * from sys.plan_cache").first() {
                        let v = row.values();
                        let (hits, misses) = (as_u64(&v[0]), as_u64(&v[1]));
                        let rate = if hits + misses == 0 {
                            0.0
                        } else {
                            hits as f64 / (hits + misses) as f64
                        };
                        println!(
                            "plan cache: {hits} hits ({} by query), {misses} misses \
                             ({:.0}% hit rate), {} cached program(s), {} memoized \
                             quer(ies), {} embedded row(s), {} answer row(s)",
                            v[5],
                            rate * 100.0,
                            v[2],
                            v[6],
                            v[3],
                            v[4]
                        );
                    }
                    print_wal(&session);
                    println!("engine counters (nonzero; \\metrics for all):");
                    print_metrics(&session, true);
                }
                Some("set") => match (parts.next(), parts.next()) {
                    (None, _) => {
                        match session.memory_budget() {
                            Some(b) => println!("memory budget: {b} bytes per query"),
                            None => println!("memory budget: unlimited"),
                        }
                        println!(
                            "magic rewrite: {}",
                            if session.magic_enabled() { "on" } else { "off" }
                        );
                        match session.slowlog_threshold_ms() {
                            Some(ms) => println!("slowlog: capturing statements over {ms} ms"),
                            None => println!("slowlog: off"),
                        }
                        println!(
                            "plan verifier: {}",
                            if session.verify_enabled() {
                                "on"
                            } else {
                                "off"
                            }
                        );
                    }
                    (Some("memory"), Some(spec)) => match parse_bytes(spec) {
                        Some(None) => {
                            session.set_memory_budget(None);
                            println!("memory budget: unlimited");
                        }
                        Some(Some(bytes)) => {
                            session.set_memory_budget(Some(bytes));
                            println!(
                                "memory budget: {bytes} bytes per query \
                                 (materialization points spill past their share)"
                            );
                        }
                        None => println!("usage: \\set memory <n[k|m|g]|off>"),
                    },
                    (Some("magic"), Some(spec)) => match spec.to_ascii_lowercase().as_str() {
                        "on" => {
                            session.set_magic(true);
                            println!("magic rewrite: on");
                        }
                        "off" => {
                            session.set_magic(false);
                            println!("magic rewrite: off (unrewritten Algorithm 1 plans)");
                        }
                        _ => println!("usage: \\set magic <on|off>"),
                    },
                    (Some("verify"), Some(spec)) => match spec.to_ascii_lowercase().as_str() {
                        "on" => {
                            session.set_verify(true);
                            println!("plan verifier: on (every rewrite pass is re-checked)");
                        }
                        "off" => {
                            session.set_verify(false);
                            println!("plan verifier: off");
                        }
                        _ => println!("usage: \\set verify <on|off>"),
                    },
                    (Some("slowlog"), Some(spec)) => {
                        if spec.eq_ignore_ascii_case("off") {
                            session.set_slowlog_threshold_ms(None);
                            println!("slowlog: off");
                        } else {
                            match spec.parse::<u64>() {
                                Ok(ms) => {
                                    session.set_slowlog_threshold_ms(Some(ms));
                                    println!("slowlog: capturing statements over {ms} ms");
                                }
                                Err(_) => println!("usage: \\set slowlog <ms|off>"),
                            }
                        }
                    }
                    _ => println!(
                        "usage: \\set memory <n[k|m|g]|off> | \\set magic <on|off> | \
                         \\set verify <on|off> | \\set slowlog <ms|off>"
                    ),
                },
                Some("explain") => {
                    let rest: Vec<&str> = parts.collect();
                    match session.explain(&rest.join(" ")) {
                        Ok(text) => println!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                Some("lint") => {
                    let rest: Vec<&str> = parts.collect();
                    match session.lint(&rest.join(" ")) {
                        Ok(diags) if diags.is_empty() => println!("no diagnostics"),
                        Ok(diags) => {
                            for d in &diags {
                                println!("{d}");
                            }
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                Some("profile") => {
                    let rest: Vec<&str> = parts.collect();
                    match session.explain_analyze(&rest.join(" ")) {
                        Ok(text) => println!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                Some("metrics") => print_metrics(&session, false),
                Some("statements") => {
                    let n: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10);
                    match session.query(&format!(
                        "select statement, calls, errors, mean_time_ns, total_time_ns, \
                         rows_returned from sys.statements order by total_time_ns desc limit {n}"
                    )) {
                        Ok(result) => println!("{result}"),
                        Err(e) => println!("error: {e}"),
                    }
                }
                Some("slowlog") => {
                    match session.slowlog_threshold_ms() {
                        Some(ms) => println!("slowlog: capturing statements over {ms} ms"),
                        None => println!("slowlog: off (\\set slowlog <ms> to arm)"),
                    }
                    let rows = sys_rows(&session, "select * from sys.slowlog");
                    if rows.is_empty() {
                        println!("no captures");
                    }
                    // Full operator profiles stay on the trace API; the
                    // sys.slowlog relation carries statement/time/spans.
                    let entries = session.slowlog_entries();
                    for (i, row) in rows.iter().enumerate() {
                        let v = row.values();
                        println!("-- {:.2} ms  {}", as_u64(&v[1]) as f64 / 1e6, v[0]);
                        for span in v[2].to_string().split_whitespace() {
                            if let Some((name, ns)) = span.split_once('=') {
                                println!(
                                    "   {name:<12} {:.2} ms",
                                    ns.parse::<u64>().unwrap_or(0) as f64 / 1e6
                                );
                            }
                        }
                        if let Some(profile) = entries.get(i).and_then(|t| t.profile.as_ref()) {
                            print!("{profile}");
                        }
                    }
                }
                Some("worlds") => {
                    for (wid, path) in session.bdms().internal().directory().iter() {
                        println!("  #{wid} {path}");
                    }
                }
                Some("open") => match parts.next() {
                    Some(dir) => {
                        let path = std::path::Path::new(dir);
                        let result = if beliefdb::storage::PersistEngine::exists(path) {
                            Session::open(path)
                        } else {
                            Session::create(path, naturemapping())
                        };
                        match result {
                            Ok(mut s) => {
                                // Memory budget and magic toggle are
                                // session settings: they survive
                                // switching databases.
                                s.set_memory_budget(session.memory_budget());
                                s.set_magic(session.magic_enabled());
                                if let Err(e) = std::mem::replace(&mut session, s).close() {
                                    println!("error: {e}");
                                }
                                let stats = session.bdms().stats();
                                println!(
                                    "opened {dir}: {} tuples, {} worlds, {} users",
                                    stats.total_tuples, stats.worlds, stats.users
                                );
                                if let Some(wal) = session.bdms().wal_stats() {
                                    if wal.truncated_on_open {
                                        println!("note: recovery truncated a torn WAL tail");
                                    }
                                }
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    None => println!("usage: \\open <dir>"),
                },
                Some("checkpoint") => match session.checkpoint() {
                    Ok(hwm) => println!("checkpoint written (covers LSN < {hwm})"),
                    Err(e) => println!("error: {e}"),
                },
                Some("wal") => print_wal(&session),
                other => println!("unknown meta-command {other:?}; try \\help"),
            }
            continue;
        }
        // SELECTs stream: each row is printed the moment the executor
        // produces it (the streaming pipeline never collects the result),
        // with the column header and count as a footer. DML and EXPLAIN
        // go through the collecting path.
        if line
            .get(..6)
            .is_some_and(|h| h.eq_ignore_ascii_case("select"))
        {
            match session.query_streaming(line, |row| println!("{row}")) {
                Ok((columns, n)) => println!(
                    "({n} row{} of {})",
                    if n == 1 { "" } else { "s" },
                    columns.join(", ")
                ),
                // sys.* scans and ORDER BY / LIMIT refuse the streaming
                // path; collect those instead and print the table.
                Err(e) if e.to_string().contains("use query()") => match session.query(line) {
                    Ok(result) => println!("{result}"),
                    Err(e) => println!("error: {e}"),
                },
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        match session.execute(line) {
            Ok(result) => println!("{result}"),
            Err(e) => println!("error: {e}"),
        }
    }
    if let Err(e) = session.close() {
        println!("error: {e}");
    }
    Ok(())
}
