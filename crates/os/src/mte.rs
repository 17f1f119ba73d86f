//! The memory transaction engine (paper §4.2, Fig. 6): the one path by
//! which a device reaches memory. The Cohort engine owns one
//! [`MteChannel`] per endpoint, the MAPLE baseline one for its DMA.
//!
//! A channel takes one virtually addressed read or write, splits it at
//! line boundaries, translates each piece through the [`DeviceMmu`] (a TLB
//! hit, or a walk whose PTE reads are timed coherent reads on the port)
//! and moves it through the device's [`CoherentPort`]. The owner drives it
//! with [`MteChannel::advance`] every step and [`MteChannel::completed`]
//! for every port completion, and takes the result with
//! [`MteChannel::finish`].

use crate::mmu::{DeviceMmu, TlbResult, WalkMachine, WalkStep};
use cohort_sim::component::{CompId, Ctx};
use cohort_sim::config::{CacheConfig, SocConfig};
use cohort_sim::line_of;
use cohort_sim::mem::MemAccess;
use cohort_sim::port::{CoherentPort, Outcome};
use cohort_sim::LINE_BYTES;

/// Lines a device's MTE buffer holds, pinned monitor lines included.
pub const MTE_LINES: u64 = 8;

/// A device's memory side: its MTE line buffer on the directory `dir`
/// (fully associative, so pins can never jam a set) and its MMU.
pub fn memory(dir: CompId, cfg: &SocConfig) -> (CoherentPort, DeviceMmu) {
    let buffer = CacheConfig::new(MTE_LINES * LINE_BYTES, MTE_LINES as u32);
    let port = CoherentPort::new(dir, buffer, 1);
    (port, DeviceMmu::new(cfg.tlb_entries))
}

/// Why an operation did not move this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// The port refused a conflicting request; the channel translates
    /// again on its next [`MteChannel::advance`] unless cancelled.
    Retry,
    /// The page-table walk for `va` faulted; the channel waits for
    /// [`MteChannel::resolve_fault`].
    Fault {
        /// The faulting virtual address.
        va: u64,
    },
}

#[derive(Debug, Clone, Copy, Default)]
enum State {
    /// Translate the next line segment.
    #[default]
    Translate,
    /// A PTE read of this walk is outstanding.
    Walk(WalkMachine),
    /// Faulted; waiting for the OS.
    Fault,
    /// The port access is outstanding.
    Wait { pa: u64, seg: usize },
    /// The access hit; completes at cycle `at`.
    Hit { at: u64, pa: u64, seg: usize },
}

/// One MTE channel. It owns its data buffer for the whole run: each
/// operation refills it in place, so an operation allocates nothing once
/// the buffer has grown to the largest transfer.
#[derive(Debug, Default)]
pub struct MteChannel {
    /// Port token of data accesses; PTE reads use `token + 1`.
    token: u64,
    busy: bool,
    done: bool,
    write: bool,
    /// Streaming access: each line is relinquished after use.
    transient: bool,
    va: u64,
    buf: Vec<u8>,
    offset: usize,
    state: State,
    last_pa: u64,
}

impl MteChannel {
    /// An idle channel whose port requests carry `token` and `token + 1`.
    pub fn new(token: u64) -> Self {
        Self {
            token,
            ..Self::default()
        }
    }

    /// No operation is in flight or awaiting [`MteChannel::finish`].
    #[inline]
    pub fn idle(&self) -> bool {
        !self.busy
    }

    /// The owner can act: the channel is idle or its operation is done.
    #[inline]
    pub fn settled(&self) -> bool {
        !self.busy || self.done
    }

    /// The operation's bytes: read data once finished, or what a write
    /// stores.
    #[inline]
    pub fn buf(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes already moved by the current operation.
    #[inline]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// True if the current (or just finished) operation is a write.
    #[inline]
    pub fn writing(&self) -> bool {
        self.write
    }

    /// Physical address of the last completed segment.
    #[inline]
    pub fn last_pa(&self) -> u64 {
        self.last_pa
    }

    /// Starts an operation at `va` and hands back the emptied buffer, for
    /// the caller to fill with the bytes to write or size to the length
    /// to read. Only a `transient` write of a whole aligned line skips the
    /// line fill. Call [`MteChannel::advance`] next.
    pub fn start(&mut self, va: u64, write: bool, transient: bool) -> &mut Vec<u8> {
        debug_assert!(!self.busy, "MTE channel already busy");
        self.cancel();
        (self.busy, self.write, self.transient, self.va) = (true, write, transient, va);
        &mut self.buf
    }

    /// Retires a completed operation (its bytes stay in the buffer);
    /// false while none has completed.
    #[inline]
    pub fn finish(&mut self) -> bool {
        let done = std::mem::take(&mut self.done);
        self.busy &= !done;
        done
    }

    /// Abandons the operation, keeping the buffer's allocation. A port
    /// completion still in flight for it is ignored.
    pub fn cancel(&mut self) {
        let (token, mut buf) = (self.token, std::mem::take(&mut self.buf));
        buf.clear();
        *self = Self {
            token,
            buf,
            ..Self::default()
        };
    }

    /// The OS resolved the fault: translate again on the next advance.
    pub fn resolve_fault(&mut self) {
        if matches!(self.state, State::Fault) {
            self.state = State::Translate;
        }
    }

    /// Cycles until the channel acts on its own: now while it must
    /// translate, at a hit's completion, never while it waits on a
    /// message or on its owner.
    #[inline]
    pub fn hint(&self, now: u64) -> u64 {
        match self.state {
            _ if self.settled() => u64::MAX,
            State::Translate => 0,
            State::Hit { at, .. } => at.saturating_sub(now),
            State::Walk(_) | State::Fault | State::Wait { .. } => u64::MAX,
        }
    }

    /// Pushes the operation forward: completes a due hit, or translates
    /// the next segment and issues its access (or the walk's first PTE
    /// read).
    #[inline]
    pub fn advance(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: &mut CoherentPort,
        mmu: &mut DeviceMmu,
    ) -> Result<(), Stall> {
        match self.state {
            _ if self.settled() => return Ok(()),
            State::Translate => {}
            State::Hit { at, pa, seg } if ctx.cycle >= at => {
                return self.complete(ctx, port, mmu, pa, seg);
            }
            _ => return Ok(()),
        }
        let va = self.va + self.offset as u64;
        let seg = ((LINE_BYTES - va % LINE_BYTES) as usize).min(self.buf.len() - self.offset);
        let TlbResult::Hit { pa } = mmu.lookup(va) else {
            let walk = mmu.begin_walk(va);
            return self.read_pte(ctx, port, mmu, walk);
        };
        // A whole-line streaming write skips the fetch (the WCM
        // write-combines full output lines).
        let full_line =
            self.transient && self.write && seg == LINE_BYTES as usize && pa % LINE_BYTES == 0;
        self.state = match port.request_opts(ctx, pa, self.write, self.token, full_line) {
            Outcome::Hit { ready_at } => State::Hit {
                at: ready_at,
                pa,
                seg,
            },
            Outcome::Pending => State::Wait { pa, seg },
            Outcome::Retry => return Err(Stall::Retry),
        };
        Ok(())
    }

    /// Routes a port completion of `token`; one of another channel is
    /// ignored.
    #[inline]
    pub fn completed(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: &mut CoherentPort,
        mmu: &mut DeviceMmu,
        token: u64,
    ) -> Result<(), Stall> {
        match self.state {
            State::Walk(walk) if token == self.token + 1 => self.feed_pte(ctx, port, mmu, walk),
            State::Wait { pa, seg } if token == self.token => {
                self.complete(ctx, port, mmu, pa, seg)
            }
            _ => Ok(()),
        }
    }

    fn read_pte(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: &mut CoherentPort,
        mmu: &mut DeviceMmu,
        walk: WalkMachine,
    ) -> Result<(), Stall> {
        self.state = State::Walk(walk);
        match port.request(ctx, walk.pte_pa(), false, self.token + 1) {
            // The PTE line is already in the buffer: feed it now.
            Outcome::Hit { .. } => self.feed_pte(ctx, port, mmu, walk),
            Outcome::Pending => Ok(()),
            Outcome::Retry => {
                self.state = State::Translate;
                Err(Stall::Retry)
            }
        }
    }

    fn feed_pte(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: &mut CoherentPort,
        mmu: &mut DeviceMmu,
        mut walk: WalkMachine,
    ) -> Result<(), Stall> {
        match walk.feed(ctx.mem.read_u64(walk.pte_pa())) {
            WalkStep::NeedPte => self.read_pte(ctx, port, mmu, walk),
            WalkStep::Done {
                va_page,
                pa_page,
                size,
                ..
            } => {
                // Install and translate again: the access goes through
                // the TLB like any other.
                mmu.insert(va_page, pa_page, size);
                self.state = State::Translate;
                self.advance(ctx, port, mmu)
            }
            WalkStep::Fault => {
                mmu.note_fault();
                self.state = State::Fault;
                Err(Stall::Fault { va: walk.va() })
            }
        }
    }

    fn complete(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: &mut CoherentPort,
        mmu: &mut DeviceMmu,
        pa: u64,
        seg: usize,
    ) -> Result<(), Stall> {
        let bytes = self.offset..self.offset + seg;
        if self.write {
            ctx.mem.write_bytes(pa, &self.buf[bytes]);
        } else {
            ctx.mem.read_bytes(pa, &mut self.buf[bytes]);
        }
        self.offset += seg;
        self.last_pa = pa;
        self.state = State::Translate;
        if self.transient {
            // Streaming data: the device bridges, it does not hold.
            port.relinquish(ctx, line_of(pa));
        }
        if self.offset >= self.buf.len() {
            self.done = true;
            return Ok(());
        }
        self.advance(ctx, port, mmu)
    }
}
