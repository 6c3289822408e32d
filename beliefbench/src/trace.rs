//! The span recorder of the traced run.
//!
//! The harness calls each layer's public functions itself and brackets
//! every call with a span. A span that times a call fusing two layers
//! gets a *probe* child: the separable half run again on its own, after
//! the statement finished, so the statement's latency does not include
//! it. A layer's self time is its span minus its children, probes
//! included.

use crate::json::Json;
use crate::stats::Samples;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a statement's root.
    pub parent: u32,
    /// Spans of one statement share its id.
    pub stmt_id: u32,
    /// Ran outside the statement's timed interval (see module docs).
    pub probe: bool,
}

/// In-memory span log; written out once, at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    stmt_id: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            stmt_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next statement; its spans carry the returned id.
    pub fn next_statement(&mut self) -> u32 {
        self.stmt_id += 1;
        self.stmt_id
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt_id: self.stmt_id,
            probe: false,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Time `f` as a probe child of the already closed span `parent`.
    pub fn probe<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt_id: self.spans[parent as usize].stmt_id,
            probe: true,
        });
        out
    }

    /// Duration of a closed span.
    pub fn duration(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span (duration minus children, floored at 0),
    /// grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Samples> {
        let child_ns = children_ns(&self.spans);
        let mut by_name: BTreeMap<&'static str, Samples> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            by_name.entry(s.name).or_default().push(own);
        }
        by_name
    }

    /// Each span name's share of the time of all statements whose root
    /// span is called `root`, over the first `end` spans: Σ self time over
    /// Σ root duration. With one client nothing waits, so a layer's share
    /// is the ceiling of what making it faster can save.
    pub fn shares(&self, root: &str, end: usize) -> Vec<(&'static str, f64)> {
        let spans = &self.spans[..end];
        let child_ns = children_ns(spans);
        let mut total = 0u64;
        let mut own: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let mut top = s;
            while top.parent != NO_PARENT {
                top = &spans[top.parent as usize];
            }
            if top.name != root {
                continue;
            }
            if s.parent == NO_PARENT {
                total += s.end_ns - s.start_ns;
            }
            *own.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        own.into_iter()
            .map(|(name, ns)| (name, ns as f64 / total.max(1) as f64))
            .collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Int(s.parent as u64)
                        },
                    ),
                    ("stmt_id", Json::Int(s.stmt_id as u64)),
                    ("probe", Json::Bool(s.probe)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Per span, the time its children took (probes included). A span's
/// children come after it and before the next statement, so a prefix of
/// the log that ends between statements holds them all.
fn children_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    child_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes() {
        let mut t = Tracer::new();
        t.next_statement();
        let root = t.open("session");
        let parse = t.open("parse");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(parse);
        t.close(root);
        t.probe("tokenize", parse, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(t.len(), 3);
        let mut own = t.self_times();
        let parse_own = own.get_mut("parse").unwrap().median();
        let tok = own.get_mut("tokenize").unwrap().median();
        assert!(tok >= 1_000_000);
        assert_eq!(parse_own, t.duration(parse) - tok);
        let root_own = own.get_mut("session").unwrap().median();
        assert_eq!(root_own, t.duration(root) - t.duration(parse));
        assert_eq!(t.spans[2].stmt_id, 1);
    }
}
