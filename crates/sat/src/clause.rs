//! Clause storage: one paged arena.
//!
//! Every clause is a 4-word header followed by its literals, stored
//! inline:
//!
//! | word | content |
//! |------|---------|
//! | 0    | number of literals |
//! | 1    | `lbd << 2 \| deleted << 1 \| learnt` |
//! | 2, 3 | clause activity: the low and high halves of an `f64` |
//! | 4..  | the literals; the first two are the *watched* pair |
//!
//! The header words are raw [`Lit`] values, so the arena is one plain
//! `Vec<Lit>` per page and needs no `unsafe`. The solver maintains the
//! watched-pair invariant: unless the clause is satisfied, neither
//! watched literal is false (or the clause is unit/conflicting and on
//! the propagation queue).
//!
//! # Why pages
//!
//! The arena is a list of fixed pages of [`PAGE_LITS`] literals, not
//! one growable vector. A clause goes into the last page if it fits
//! and otherwise opens a new page of `max(PAGE_LITS, 4 + len)`; it
//! never goes back into an earlier page, so page order is allocation
//! order, which `reduce_db`'s stable sort relies on. A page never
//! reallocates. One growable arena was as fast but read 27% more peak
//! RSS on `table1-paper`: `realloc` copies a buffer that lives on the
//! brk heap, and glibc's dynamic mmap threshold puts multi-megabyte
//! buffers there once the first one has been freed. Fixed 256 KiB
//! pages are allocated once each and never copied.
//!
//! Deleted clauses are tombstones: their space stays in the page, as a
//! deleted clause's literal vector stayed allocated before the arena.
//! Nothing compacts the arena.

use crate::types::Lit;

/// Literals per arena page.
const PAGE_LITS: usize = 1 << 16;

/// Header words before each clause's literals.
const HEADER: usize = 4;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;

/// A clause's place in the arena: the page index in the high 16 bits
/// and the header's offset in the page in the low 16 bits.
///
/// A clause that opens an oversized page sits at offset 0, and every
/// other offset is below [`PAGE_LITS`], so 16 bits hold any offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub(crate) struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    #[inline]
    fn split(self) -> (usize, usize) {
        ((self.0 >> 16) as usize, (self.0 & 0xFFFF) as usize)
    }
}

/// The clause database (see the module docs for the layout).
#[derive(Default)]
pub(crate) struct ClauseArena {
    pages: Vec<Vec<Lit>>,
}

impl ClauseArena {
    /// `true` before the first clause is stored.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Stores a clause with activity 0 and returns its reference.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let need = HEADER + lits.len();
        if self.pages.last().is_none_or(|p| p.len() + need > PAGE_LITS) {
            self.pages.push(Vec::with_capacity(need.max(PAGE_LITS)));
        }
        let page = u32::try_from(self.pages.len() - 1)
            .ok()
            .filter(|&p| p <= 0xFFFF)
            .expect("clause arena overflow");
        let p = self.pages.last_mut().expect("a page was just ensured");
        let offset = p.len() as u32;
        let len = u32::try_from(lits.len()).expect("clause length overflow");
        p.extend_from_slice(&[Lit(len), Lit(lbd << 2 | u32::from(learnt)), Lit(0), Lit(0)]);
        p.extend_from_slice(lits);
        ClauseRef(page << 16 | offset)
    }

    /// The header words and literals of `c`, as one slice.
    #[inline]
    fn slot(&self, c: ClauseRef) -> &[Lit] {
        let (p, o) = c.split();
        let page = &self.pages[p];
        &page[o..o + HEADER + page[o].0 as usize]
    }

    #[inline]
    fn slot_mut(&mut self, c: ClauseRef) -> &mut [Lit] {
        let (p, o) = c.split();
        let page = &mut self.pages[p];
        let end = o + HEADER + page[o].0 as usize;
        &mut page[o..end]
    }

    /// The literals of `c`.
    #[inline]
    pub fn lits(&self, c: ClauseRef) -> &[Lit] {
        &self.slot(c)[HEADER..]
    }

    /// The literals of `c`, mutably (the watch scan reorders them), or
    /// `None` when it is deleted.
    #[inline]
    pub fn live_lits_mut(&mut self, c: ClauseRef) -> Option<&mut [Lit]> {
        let slot = self.slot_mut(c);
        (slot[1].0 & DELETED == 0).then(|| &mut slot[HEADER..])
    }

    /// `true` for a learnt clause (database reduction may delete it).
    #[inline]
    pub fn learnt(&self, c: ClauseRef) -> bool {
        self.slot(c)[1].0 & LEARNT != 0
    }

    /// `true` once `c` is a tombstone, skipped by every scan.
    #[inline]
    pub fn deleted(&self, c: ClauseRef) -> bool {
        self.slot(c)[1].0 & DELETED != 0
    }

    /// Makes `c` a tombstone.
    pub fn delete(&mut self, c: ClauseRef) {
        self.slot_mut(c)[1].0 |= DELETED;
    }

    /// Literal-block distance at learning time (glue level).
    #[inline]
    pub fn lbd(&self, c: ClauseRef) -> u32 {
        self.slot(c)[1].0 >> 2
    }

    /// Bump-and-decay activity for learnt-clause retention.
    #[inline]
    pub fn activity(&self, c: ClauseRef) -> f64 {
        activity(self.slot(c))
    }

    pub fn set_activity(&mut self, c: ClauseRef, a: f64) {
        set_activity(self.slot_mut(c), a);
    }

    /// Multiplies every learnt clause's activity by `f`.
    pub fn scale_learnt_activity(&mut self, f: f64) {
        self.for_each_slot_mut(|s| {
            if s[1].0 & LEARNT != 0 {
                set_activity(s, activity(s) * f);
            }
        });
    }

    /// Deletes every live problem clause whose literals satisfy
    /// `pred`, in allocation order; returns how many it deleted.
    pub fn delete_problem_clauses(&mut self, mut pred: impl FnMut(&[Lit]) -> bool) -> usize {
        let mut deleted = 0;
        self.for_each_slot_mut(|s| {
            if s[1].0 & (LEARNT | DELETED) == 0 && pred(&s[HEADER..]) {
                s[1].0 |= DELETED;
                deleted += 1;
            }
        });
        deleted
    }

    fn for_each_slot_mut(&mut self, mut f: impl FnMut(&mut [Lit])) {
        for page in &mut self.pages {
            let mut o = 0;
            while o < page.len() {
                let end = o + HEADER + page[o].0 as usize;
                f(&mut page[o..end]);
                o = end;
            }
        }
    }

    /// Every clause, deleted ones included, in allocation order.
    pub fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            std::iter::successors(Some(0), move |&o: &usize| {
                let next = o + HEADER + page[o].0 as usize;
                (next < page.len()).then_some(next)
            })
            .map(move |o| ClauseRef((p as u32) << 16 | o as u32))
        })
    }
}

fn activity(slot: &[Lit]) -> f64 {
    f64::from_bits(u64::from(slot[2].0) | u64::from(slot[3].0) << 32)
}

fn set_activity(slot: &mut [Lit], a: f64) {
    let bits = a.to_bits();
    slot[2] = Lit(bits as u32);
    slot[3] = Lit((bits >> 32) as u32);
}

/// A watcher entry: the clause plus a *blocker* literal from it.
/// If the blocker is already true the clause is satisfied and the
/// watcher scan can skip loading the clause at all.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher {
    pub cref: ClauseRef,
    pub blocker: Lit,
}
