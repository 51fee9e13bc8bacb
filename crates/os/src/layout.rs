//! The kernel's memory map and ABI, mirrored from `src/asm/kernel.s`.
//!
//! Everything here is a contract between the guest kernel (which
//! addresses these words from MIPS assembly via `.equ` constants) and
//! the host runtime (which seeds and reads them with `peek`/`poke`).
//! The two must agree; `tests` in this module pin the assembly's
//! constants to these values.

/// 16-word register save area (r0..r15) used by exception entry.
pub const SAVE: u32 = 0x100;
/// Pid of the running process (0 = none yet).
pub const CURRENT: u32 = 0x120;
/// Number of spawned processes; valid pids are `1..=NPROCS`.
pub const NPROCS: u32 = 0x121;
/// Counter: timer interrupts taken.
pub const KTICKS: u32 = 0x122;
/// Counter: demand (hard) page faults.
pub const KFAULTS: u32 = 0x123;
/// Counter: frames evicted by the second-chance sweep.
pub const KEVICTS: u32 = 0x124;
/// Counter: soft faults (swept pages remapped on re-touch).
pub const KSOFT: u32 = 0x125;
/// Counter: traps serviced.
pub const KSYSCALLS: u32 = 0x126;
/// Counter: process switch-ins.
pub const KSWITCHES: u32 = 0x127;
/// Monotonic tick clock, returned by the `time` syscall.
pub const CLOCK: u32 = 0x128;
/// Second-chance clock hand (frame-table slot index).
pub const FHAND: u32 = 0x129;
/// Frame slots filled so far (the FIFO fill point).
pub const FQLEN: u32 = 0x12a;
/// Frame budget; the host writes this before boot.
pub const NFRAMES: u32 = 0x12b;
/// Counter: NIC delivery doorbells taken.
pub const KNETIRQ: u32 = 0x12c;
/// Counter: frames committed by the `send` syscall.
pub const KSENDS: u32 = 0x12d;
/// Counter: frames consumed by the `recv` syscall.
pub const KRECVS: u32 = 0x12e;
/// Digit buffer for the `putint` syscall.
pub const ITOA: u32 = 0x140;
/// Process control block table base.
pub const PCB_BASE: u32 = 0x200;
/// Words per process control block.
pub const PCB_STRIDE: u32 = 32;
/// Frame table base: 2 words per slot, `[page, referenced]`.
pub const FRAMES_BASE: u32 = 0x400;

/// PCB field offsets.
pub mod pcb {
    /// Process state ([`FREE`](STATE_FREE)…).
    pub const STATE: u32 = 0;
    /// Entry address (host bookkeeping).
    pub const ENTRY: u32 = 1;
    /// Saved return-address chain (three words).
    pub const RET0: u32 = 2;
    /// Saved surprise register.
    pub const SURPRISE: u32 = 5;
    /// Exit status, or the raw surprise of the killing exception.
    pub const CODE: u32 = 6;
    /// Program break (the `brk` syscall's word).
    pub const BRK: u32 = 7;
    /// Saved r0..r15 (sixteen words).
    pub const REGS: u32 = 8;
    /// Saved `lo`, the user-visible byte-insert selector.
    pub const LO: u32 = 24;

    /// Unused slot.
    pub const STATE_FREE: u32 = 0;
    /// Ready to run.
    pub const STATE_RUNNABLE: u32 = 1;
    /// Exited via the `exit` syscall.
    pub const STATE_EXITED: u32 = 2;
    /// Killed by a fatal exception.
    pub const STATE_KILLED: u32 = 3;
}

/// System-call trap codes. The first three coincide with the
/// simulator's native firmware services, so a program compiled for
/// bare metal traps into the kernel unchanged.
pub mod sys {
    /// `exit(status)` — status in r1.
    pub const EXIT: u16 = 0;
    /// `putchar(byte)` — byte in r1.
    pub const PUTC: u16 = 1;
    /// `putint(value)` — signed decimal print, value in r1.
    pub const PUTINT: u16 = 2;
    /// `yield()` — give up the rest of the time slice.
    pub const YIELD: u16 = 3;
    /// `brk(addr)` — set the program break, old break returned in r1.
    pub const BRK: u16 = 4;
    /// `getpid()` — pid returned in r1.
    pub const GETPID: u16 = 5;
    /// `time()` — tick count returned in r1.
    pub const TIME: u16 = 6;
    /// `send(dst, word)` — destination node in r1, payload word in r2;
    /// r1 returns 0 on success, all-ones when the TX ring is full.
    pub const SEND: u16 = 7;
    /// `recv()` — payload word returned in r1, source node in r2
    /// (all-ones in r2 when nothing is waiting).
    pub const RECV: u16 = 8;
    /// `poll()` — raw NIC status word returned in r1 (bit 0: frame
    /// waiting, bit 1: TX space).
    pub const POLL: u16 = 9;
    /// `sendf(dst, w0..w3)` — commits a whole four-word frame (the
    /// Frame2 wire format): destination in r1, payload words in
    /// r2, r8, r9, r10; r1 returns 0 on success, all-ones when the
    /// TX ring is full.
    pub const SENDF: u16 = 10;
    /// `recvf()` — pops the head frame as four words: source node
    /// returned in r1 (all-ones when nothing is waiting), payload
    /// words in r2, r8, r9, r10 (zero past a short frame's payload).
    pub const RECVF: u16 = 11;
}

/// Most processes the kernel can hold. Eight pids of sixteen possible
/// `pid_bits = 4` values keeps every mapped address below the MMIO
/// window and the identity-frame budget honest.
pub const MAX_PROCS: u32 = 8;
/// Frame-table capacity (`FRAMES_BASE` region size / 2).
pub const MAX_FRAMES: u32 = 128;

/// Segmentation: inserted pid width. 4 bits = a 1M-word space per
/// process.
pub const PID_BITS: u32 = 4;
/// Exclusive end of the valid low region of a process's 32-bit space.
/// The whole 24-bit span is valid: compiled programs place globals at
/// 0x1000 and the stack top at 0xE00000, both below this.
pub const LOW_LIMIT: u32 = 0x0100_0000;
/// Inclusive start of the valid high region. References between
/// `LOW_LIMIT` and here are wild pointers: the kernel kills the
/// process.
pub const HIGH_BASE: u32 = 0xffff_0000;

/// Surprise seed for a fresh process: supervisor now (the kernel is
/// running), previous = user mode with interrupts and mapping enabled
/// — exactly what `rfe` restores on first dispatch.
pub const USER_SURPRISE: u32 = 0x89;

/// Initial program break for a fresh process (above the compiled
/// globals region).
pub const INITIAL_BRK: u32 = 0x2000;

#[cfg(test)]
mod tests {
    use super::*;

    /// The `.equ` constants in `kernel.s` must mirror this module.
    #[test]
    fn kernel_source_equs_match() {
        let src = crate::KERNEL_SRC;
        let expect = [
            ("SAVE", SAVE),
            ("CURRENT", CURRENT),
            ("NPROCS", NPROCS),
            ("KTICKS", KTICKS),
            ("KFAULTS", KFAULTS),
            ("KEVICTS", KEVICTS),
            ("KSOFT", KSOFT),
            ("KSYSCALLS", KSYSCALLS),
            ("KSWITCHES", KSWITCHES),
            ("CLOCK", CLOCK),
            ("FHAND", FHAND),
            ("FQLEN", FQLEN),
            ("NFRAMES", NFRAMES),
            ("KNETIRQ", KNETIRQ),
            ("KSENDS", KSENDS),
            ("KRECVS", KRECVS),
            ("ITOA", ITOA),
            ("PCB", PCB_BASE),
            ("FRAMES", FRAMES_BASE),
        ];
        for (name, value) in expect {
            let line = src
                .lines()
                .find(|l| {
                    l.trim_start()
                        .strip_prefix(".equ ")
                        .is_some_and(|r| r.trim_start().starts_with(name))
                })
                .unwrap_or_else(|| panic!("kernel.s defines .equ {name}"));
            let got: u32 = line
                .split(';')
                .next()
                .unwrap()
                .split_whitespace()
                .nth(2)
                .unwrap()
                .parse()
                .unwrap_or_else(|_| panic!("numeric .equ {name}"));
            assert_eq!(got, value, ".equ {name} drifted from layout.rs");
        }
    }

    #[test]
    fn pcb_table_fits_below_the_frame_table() {
        const { assert!(PCB_BASE + (MAX_PROCS + 1) * PCB_STRIDE <= FRAMES_BASE) };
        // Kernel data must stay inside page 0.
        const { assert!(FRAMES_BASE + 2 * MAX_FRAMES <= 0x1000) };
    }
}
