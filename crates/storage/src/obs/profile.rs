//! Per-operator execution profiles.
//!
//! A [`Profile`] is a tree of [`ProfNode`]s mirroring the physical plan:
//! one node per operator the executor actually opened. The executor
//! threads a [`NodeObs`] handle through `open_node`; when profiling is
//! off the handle is `None` and every hook is a single branch — no
//! allocation, no timing syscalls, no counter traffic.
//!
//! Children are tagged with their **plan-child slot** rather than kept
//! positional: the executor does not open children in plan order (a
//! cross join opens its *right* side first) and some children are never
//! opened at all (a selection fused into its scan, the probed side of an
//! index nested-loop join). Render-time lookups go by slot; a missing
//! slot renders as `fused`.
//!
//! Counters are `Cell`s behind an `Rc`: the iterator tree the executor
//! builds is single-threaded and non-`Send`, so interior mutability
//! without atomics is exactly right.

use crate::error::Result;
use crate::exec::Chunk;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Counters for one executed operator.
#[derive(Debug, Default)]
pub struct ProfNode {
    /// `(plan-child slot, node)` for every child actually opened.
    children: RefCell<Vec<(usize, Rc<ProfNode>)>>,
    /// Rows this operator consumed (recorded only where the input is not
    /// itself a profiled child — fused scans, kernel filters).
    pub rows_in: Cell<u64>,
    /// Rows this operator emitted.
    pub rows_out: Cell<u64>,
    /// Chunks this operator emitted.
    pub chunks_out: Cell<u64>,
    /// Rows filtered through a compiled [`FilterKernel`] fast path.
    ///
    /// [`FilterKernel`]: mod@crate::exec::stream
    pub kernel_rows: Cell<u64>,
    /// Rows filtered through the row-wise `Expr` interpreter fallback.
    pub fallback_rows: Cell<u64>,
    /// Accounted bytes written to spill run files on behalf of this
    /// operator (every write counts, so re-partitioning passes count
    /// their I/O too).
    pub spill_bytes: Cell<u64>,
    /// Spill run files created on behalf of this operator.
    pub spill_partitions: Cell<u64>,
    /// Extra passes over spilled data (merge passes, recursive
    /// re-partitioning levels).
    pub spill_passes: Cell<u64>,
    /// Peak accounted bytes held in memory by this operator's
    /// materialization point (budgeted builds only).
    pub peak_bytes: Cell<u64>,
    /// Inclusive wall time spent inside this operator's `next()` calls
    /// (children included; render subtracts).
    pub nanos: Cell<u64>,
}

/// Add to a `Cell<u64>` counter.
#[inline]
pub fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

/// Raise a `Cell<u64>` high-water mark.
#[inline]
pub fn raise(cell: &Cell<u64>, n: u64) {
    if n > cell.get() {
        cell.set(n);
    }
}

impl ProfNode {
    pub fn new() -> Rc<ProfNode> {
        Rc::new(ProfNode::default())
    }

    /// The child node registered for plan-child `slot`, if that child
    /// was ever opened.
    pub fn child_at(&self, slot: usize) -> Option<Rc<ProfNode>> {
        self.children
            .borrow()
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, n)| Rc::clone(n))
    }

    /// Register (or return the existing) child node for `slot`.
    pub fn child(&self, slot: usize) -> Rc<ProfNode> {
        if let Some(existing) = self.child_at(slot) {
            return existing;
        }
        let node = ProfNode::new();
        self.children.borrow_mut().push((slot, Rc::clone(&node)));
        node
    }

    /// Exclusive time: inclusive nanos minus the children's inclusive
    /// nanos (saturating — clock jitter must not underflow).
    pub fn self_nanos(&self) -> u64 {
        let children: u64 = self
            .children
            .borrow()
            .iter()
            .map(|(_, n)| n.nanos.get())
            .sum();
        self.nanos.get().saturating_sub(children)
    }
}

/// The executor's per-node observation handle: `None` = profiling off.
#[derive(Clone, Default)]
pub struct NodeObs(Option<Rc<ProfNode>>);

impl NodeObs {
    /// The disabled handle — every hook downstream is one branch.
    pub fn disabled() -> NodeObs {
        NodeObs(None)
    }

    pub fn enabled(node: Rc<ProfNode>) -> NodeObs {
        NodeObs(Some(node))
    }

    /// This operator's node, if profiling is on.
    pub fn node(&self) -> Option<&Rc<ProfNode>> {
        self.0.as_ref()
    }

    /// A handle for the child at plan-child `slot`.
    pub fn child(&self, slot: usize) -> NodeObs {
        NodeObs(self.0.as_ref().map(|n| n.child(slot)))
    }

    /// A clone of the node for spill instrumentation (`None` when off).
    pub fn spill_prof(&self) -> Option<Rc<ProfNode>> {
        self.0.clone()
    }

    /// Wrap an operator's output iterator so rows/chunks/time are
    /// recorded. Disabled: returns the iterator unchanged (no box, no
    /// allocation).
    pub fn wrap<'a>(
        &self,
        iter: Box<dyn Iterator<Item = Result<Chunk>> + 'a>,
    ) -> Box<dyn Iterator<Item = Result<Chunk>> + 'a> {
        match &self.0 {
            None => iter,
            Some(node) => Box::new(Profiled {
                inner: iter,
                node: Rc::clone(node),
            }),
        }
    }
}

/// Iterator adapter recording rows out, chunks out, and inclusive time.
struct Profiled<I> {
    inner: I,
    node: Rc<ProfNode>,
}

impl<I: Iterator<Item = Result<Chunk>>> Iterator for Profiled<I> {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        let start = Instant::now();
        let item = self.inner.next();
        bump(&self.node.nanos, start.elapsed().as_nanos() as u64);
        if let Some(Ok(chunk)) = &item {
            bump(&self.node.rows_out, chunk.len() as u64);
            bump(&self.node.chunks_out, 1);
        }
        item
    }
}

/// A finished (or in-flight) execution profile: the root operator's
/// [`ProfNode`]. Counters are live — read them after draining the
/// stream. Partial profiles from error-path executions are valid: they
/// hold whatever was counted before the error surfaced.
#[derive(Clone)]
pub struct Profile {
    root: Rc<ProfNode>,
}

impl Profile {
    pub fn new(root: Rc<ProfNode>) -> Profile {
        Profile { root }
    }

    pub fn root(&self) -> &Rc<ProfNode> {
        &self.root
    }

    /// Rows the root operator emitted — must equal the query's
    /// materialized result size (the `explain_analyze_differential`
    /// suite asserts exactly this).
    pub fn rows_out(&self) -> u64 {
        self.root.rows_out.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_stable_and_deduplicated() {
        let root = ProfNode::new();
        let right = root.child(1);
        let left = root.child(0);
        bump(&right.rows_out, 5);
        assert_eq!(root.child_at(1).unwrap().rows_out.get(), 5);
        assert_eq!(root.child_at(0).unwrap().rows_out.get(), 0);
        assert!(Rc::ptr_eq(&root.child(0), &left));
        assert!(root.child_at(2).is_none());
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = NodeObs::disabled();
        assert!(obs.node().is_none());
        assert!(obs.child(0).node().is_none());
        assert!(obs.spill_prof().is_none());
    }

    #[test]
    fn self_nanos_saturates() {
        let root = ProfNode::new();
        let child = root.child(0);
        root.nanos.set(10);
        child.nanos.set(25);
        assert_eq!(root.self_nanos(), 0);
        root.nanos.set(100);
        assert_eq!(root.self_nanos(), 75);
        raise(&root.peak_bytes, 7);
        raise(&root.peak_bytes, 3);
        assert_eq!(root.peak_bytes.get(), 7);
    }
}
