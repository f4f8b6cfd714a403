//! Per-thread reorder buffer (256 entries each, replicated — Fig. 1).

use crate::regfile::PhysReg;
use smtsim_energy::PipelineStage;
use smtsim_mem::ReqId;
use smtsim_trace::{DynInstr, InstrClass};
use std::collections::VecDeque;

/// Which shared issue queue an instruction occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    Int,
    Fp,
    Ls,
}

impl QueueKind {
    /// Map an instruction class to its queue.
    pub fn of(class: InstrClass) -> QueueKind {
        if class.is_fp() {
            QueueKind::Fp
        } else if class.is_mem() {
            QueueKind::Ls
        } else {
            QueueKind::Int
        }
    }

    /// Queue index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            QueueKind::Int => 0,
            QueueKind::Fp => 1,
            QueueKind::Ls => 2,
        }
    }
}

/// Execution state of a dispatched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrState {
    /// In an issue queue, waiting for operands / a unit.
    InQueue,
    /// Executing on a unit; result at `done_at`.
    Executing { done_at: u64 },
    /// A load waiting on the memory hierarchy.
    WaitingMem { req: ReqId },
    /// Completed, waiting to commit.
    Done,
}

/// One in-flight instruction past rename.
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Core-wide monotonically increasing id (also the policy's
    /// `LoadToken` for loads).
    pub token: u64,
    pub instr: DynInstr,
    /// Wrong-path junk (never commits; squashed on branch resolution).
    pub wrong_path: bool,
    pub state: InstrState,
    pub queue: QueueKind,
    /// Source physical registers.
    pub srcs: [Option<PhysReg>; 2],
    /// `(allocated, previous)` physical destination mapping.
    pub dst: Option<(PhysReg, PhysReg)>,
    /// Correct-path branch whose prediction was wrong; resolves (and
    /// squashes) at execute.
    pub mispredicted: bool,
    /// The fetch policy was told about this load at issue.
    pub load_tracked: bool,
}

impl RobEntry {
    /// Deepest pipeline stage this instruction *completed*, for squash
    /// energy accounting (Fig. 10/11): dispatched instructions completed
    /// Rename and occupy the Queue; issued ones have executed; done ones
    /// have written their result back.
    pub fn deepest_stage(&self) -> PipelineStage {
        match self.state {
            InstrState::InQueue => PipelineStage::Queue,
            InstrState::Executing { .. } | InstrState::WaitingMem { .. } => {
                PipelineStage::Execute
            }
            InstrState::Done => PipelineStage::RegWrite,
        }
    }
}

/// A bounded, in-order reorder buffer for one hardware context.
///
/// Every entry has an absolute *position*: the number of entries pushed
/// before it, as a wrapping `u32`. [`Rob::push`] returns it, and a
/// `(position, token)` pair is a handle that [`Rob::get`] resolves in
/// O(1), with no search. Tokens are never reused, so a handle whose
/// entry has left the ROB can only miss: a committed entry's position
/// lies behind the head, and a squashed entry's position is either past
/// the tail or refilled by a younger instruction with another token.
#[derive(Debug, Clone)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Absolute position of `entries[0]`.
    head_pos: u32,
}

impl Rob {
    /// ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            head_pos: 0,
        }
    }

    /// True when another instruction can dispatch.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a dispatched instruction (program order) and return its
    /// position, the handle half that [`Rob::get`] takes beside the
    /// token. Panics when full — callers must check [`Rob::has_room`].
    pub fn push(&mut self, e: RobEntry) -> u32 {
        assert!(self.has_room(), "ROB overflow");
        if let Some(last) = self.entries.back() {
            debug_assert!(e.token > last.token, "ROB must stay in program order");
        }
        let pos = self.head_pos.wrapping_add(self.entries.len() as u32);
        self.entries.push_back(e);
        pos
    }

    /// Oldest instruction.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Remove and return the oldest instruction (commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        self.head_pos = self.head_pos.wrapping_add(1);
        Some(e)
    }

    /// Remove every entry younger than `keep_token`, appending them to
    /// `out` **newest first** (the order rename rollback requires).
    /// Into-style so the caller's scratch buffer survives across
    /// squashes (rule D10: the squash path must not allocate).
    pub fn squash_younger_into(&mut self, keep_token: u64, out: &mut Vec<RobEntry>) {
        while self.entries.back().is_some_and(|b| b.token > keep_token) {
            if let Some(e) = self.entries.pop_back() {
                out.push(e);
            }
        }
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// The entry at position `pos` if it still holds `token`; `None`
    /// once that instruction has committed or been squashed.
    #[inline]
    pub fn get(&self, pos: u32, token: u64) -> Option<&RobEntry> {
        self.entries
            .get(pos.wrapping_sub(self.head_pos) as usize)
            .filter(|e| e.token == token)
    }

    /// Mutable [`Rob::get`].
    #[inline]
    pub fn get_mut(&mut self, pos: u32, token: u64) -> Option<&mut RobEntry> {
        self.entries
            .get_mut(pos.wrapping_sub(self.head_pos) as usize)
            .filter(|e| e.token == token)
    }

    /// Index of `token` from the head, by binary search on the
    /// strictly-increasing token order. For callers that hold a bare
    /// token and no position (the policy's FLUSH action names only the
    /// offending load); everything the core parks for later uses a
    /// [`Rob::get`] handle instead.
    pub fn index_of(&self, token: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.entries.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let t = self.entries[mid].token;
            if t == token {
                return Some(mid);
            } else if t < token {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        None
    }

    /// An empty ROB whose first push lands at position `head_pos`, so
    /// tests can cross the `u32` wrap in a few pushes.
    #[cfg(test)]
    fn starting_at(capacity: usize, head_pos: u32) -> Self {
        Rob {
            head_pos,
            ..Rob::new(capacity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(token: u64) -> RobEntry {
        RobEntry {
            token,
            instr: DynInstr::nop(token, 0x1000 + token * 4),
            wrong_path: false,
            state: InstrState::InQueue,
            queue: QueueKind::Int,
            srcs: [None, None],
            dst: None,
            mispredicted: false,
            load_tracked: false,
        }
    }

    #[test]
    fn queue_kind_mapping() {
        assert_eq!(QueueKind::of(InstrClass::IntAlu), QueueKind::Int);
        assert_eq!(QueueKind::of(InstrClass::BranchCond), QueueKind::Int);
        assert_eq!(QueueKind::of(InstrClass::FpMul), QueueKind::Fp);
        assert_eq!(QueueKind::of(InstrClass::Load), QueueKind::Ls);
        assert_eq!(QueueKind::of(InstrClass::Store), QueueKind::Ls);
    }

    #[test]
    fn fifo_commit_order() {
        let mut r = Rob::new(8);
        for t in 0..5 {
            r.push(entry(t));
        }
        assert_eq!(r.head().unwrap().token, 0);
        assert_eq!(r.pop_head().unwrap().token, 0);
        assert_eq!(r.head().unwrap().token, 1);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn capacity_enforced() {
        let mut r = Rob::new(2);
        r.push(entry(0));
        r.push(entry(1));
        assert!(!r.has_room());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut r = Rob::new(1);
        r.push(entry(0));
        r.push(entry(1));
    }

    #[test]
    fn squash_removes_younger_newest_first() {
        let mut r = Rob::new(16);
        for t in 0..10 {
            r.push(entry(t));
        }
        let mut removed = Vec::new();
        r.squash_younger_into(4, &mut removed);
        let tokens: Vec<u64> = removed.iter().map(|e| e.token).collect();
        assert_eq!(tokens, vec![9, 8, 7, 6, 5]);
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().last().unwrap().token, 4);
    }

    #[test]
    fn squash_with_future_token_is_noop() {
        let mut r = Rob::new(8);
        r.push(entry(0));
        let mut removed = Vec::new();
        r.squash_younger_into(100, &mut removed);
        assert!(removed.is_empty());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn deepest_stage_by_state() {
        let mut e = entry(0);
        assert_eq!(e.deepest_stage(), PipelineStage::Queue);
        e.state = InstrState::Executing { done_at: 5 };
        assert_eq!(e.deepest_stage(), PipelineStage::Execute);
        e.state = InstrState::WaitingMem { req: 3 };
        assert_eq!(e.deepest_stage(), PipelineStage::Execute);
        e.state = InstrState::Done;
        assert_eq!(e.deepest_stage(), PipelineStage::RegWrite);
    }

    #[test]
    fn handle_survives_later_pushes_and_head_pops() {
        let mut r = Rob::new(8);
        let pos: Vec<u32> = (0..5).map(|t| r.push(entry(t))).collect();
        assert_eq!(pos, vec![0, 1, 2, 3, 4]);
        r.get_mut(pos[3], 3).unwrap().state = InstrState::Done;
        r.pop_head();
        r.pop_head();
        assert_eq!(r.push(entry(5)), 5);
        assert_eq!(r.get(pos[3], 3).unwrap().state, InstrState::Done);
        assert_eq!(r.get(pos[4], 4).unwrap().token, 4);
        assert!(r.get(pos[3], 99).is_none(), "token must match");
    }

    #[test]
    fn handle_misses_after_commit() {
        let mut r = Rob::new(8);
        let p0 = r.push(entry(0));
        let p1 = r.push(entry(1));
        assert_eq!(r.pop_head().unwrap().token, 0);
        assert!(r.get(p0, 0).is_none());
        assert!(r.get_mut(p0, 0).is_none());
        assert!(r.get(p1, 1).is_some());
    }

    #[test]
    fn handle_misses_after_squash_refills_its_position() {
        let mut r = Rob::new(8);
        for t in 0..3 {
            r.push(entry(t));
        }
        let p3 = r.push(entry(3));
        let mut removed = Vec::new();
        r.squash_younger_into(2, &mut removed);
        assert!(r.get(p3, 3).is_none(), "squashed past the tail");
        // Replayed instructions get fresh tokens at the same positions.
        assert_eq!(r.push(entry(10)), p3);
        assert!(r.get(p3, 3).is_none(), "stale token at a refilled position");
        assert_eq!(r.get(p3, 10).unwrap().token, 10);
    }

    #[test]
    fn handles_work_across_position_wraparound() {
        let mut r = Rob::starting_at(4, u32::MAX - 1);
        let handles: Vec<(u32, u64)> = (0..4).map(|t| (r.push(entry(t)), t)).collect();
        assert_eq!(
            handles.iter().map(|h| h.0).collect::<Vec<_>>(),
            vec![u32::MAX - 1, u32::MAX, 0, 1]
        );
        for &(p, t) in &handles {
            assert_eq!(r.get(p, t).unwrap().token, t);
        }
        for t in 0..3 {
            assert_eq!(r.pop_head().unwrap().token, t);
        }
        for &(p, t) in &handles[..3] {
            assert!(r.get(p, t).is_none(), "committed handle {p} must miss");
        }
        assert_eq!(r.push(entry(4)), 2);
        assert_eq!(r.get(1, 3).unwrap().token, 3);
        assert_eq!(r.get(2, 4).unwrap().token, 4);
        assert_eq!(r.index_of(4), Some(1));
    }
}
