//! Physical word-addressed memory, memory-mapped devices, and the DMA
//! engine that consumes *free memory cycles*.
//!
//! "Since memory cycles are allocated to instructions, just as ALU or
//! register access resources, an instruction that did not include a load
//! or store piece would waste some of the memory bandwidth. … a status pin
//! on the processor indicates the presence of an upcoming free memory
//! cycle. Thus, these cycles can be used for DMA, I/O or cache
//! write-backs." (paper §3.1)
//!
//! [`Memory`] is a sparse paged store of 32-bit words over the 24-bit
//! physical space, with a DMA queue that the machine drains one
//! transfer per free cycle. The device windows overlaid on the top of
//! the space belong to the [`Machine`], which owns every built-in
//! device as a plain field and dispatches their windows itself
//! ([`Machine::bus_write`]); this module holds that dispatch.

use crate::machine::{Machine, CONSOLE_ADDR, INTCTRL_ADDR, MAPUNIT_ADDR, NIC_ADDR};
use crate::nic::NIC_WINDOW;
use std::collections::{HashMap, VecDeque};

const PAGE: u32 = 4096;

/// A queued DMA transfer, serviced by one free memory cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dma {
    /// Write `value` to physical `addr`.
    Write {
        /// Physical word address.
        addr: u32,
        /// Word to store.
        value: u32,
    },
    /// Read physical `addr` (the value is appended to
    /// [`Memory::dma_read_log`]).
    Read {
        /// Physical word address.
        addr: u32,
    },
}

/// The physical memory system: sparse word storage and the DMA queue.
pub struct Memory {
    pages: HashMap<u32, Box<[u32; PAGE as usize]>>,
    dma_queue: VecDeque<Dma>,
    dma_read_log: Vec<u32>,
    /// Data-memory reads performed (excludes DMA).
    pub reads: u64,
    /// Data-memory writes performed (excludes DMA).
    pub writes: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory::new()
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident_pages", &self.pages.len())
            .field("dma_queued", &self.dma_queue.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl Memory {
    /// Creates an empty memory (all words read as zero).
    pub fn new() -> Memory {
        Memory {
            pages: HashMap::new(),
            dma_queue: VecDeque::new(),
            dma_read_log: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Every nonzero word as sorted `(address, value)` pairs — a cheap
    /// whole-memory observation for differential tests (zero words and
    /// device windows are excluded; devices have no stored words).
    pub fn snapshot(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut pages: Vec<&u32> = self.pages.keys().collect();
        pages.sort_unstable();
        for &page in pages {
            let words = &self.pages[&page];
            for (i, &w) in words.iter().enumerate() {
                if w != 0 {
                    out.push((page * PAGE + i as u32, w));
                }
            }
        }
        out
    }

    /// Reads the RAM word at physical address `pa`, counted as a memory
    /// cycle.
    pub fn read(&mut self, pa: u32) -> u32 {
        self.reads += 1;
        self.peek(pa)
    }

    /// Writes the RAM word at physical address `pa`, counted as a
    /// memory cycle.
    pub fn write(&mut self, pa: u32, value: u32) {
        self.writes += 1;
        self.poke(pa, value);
    }

    /// Reads without counting a cycle (loader/tests).
    pub fn peek(&self, pa: u32) -> u32 {
        match self.pages.get(&(pa / PAGE)) {
            Some(p) => p[(pa % PAGE) as usize],
            None => 0,
        }
    }

    /// Writes without counting a cycle (loader/tests).
    pub fn poke(&mut self, pa: u32, value: u32) {
        let page = self
            .pages
            .entry(pa / PAGE)
            .or_insert_with(|| Box::new([0u32; PAGE as usize]));
        page[(pa % PAGE) as usize] = value;
    }

    /// Queues a DMA transfer to be serviced by the next free memory cycle.
    pub fn queue_dma(&mut self, t: Dma) {
        self.dma_queue.push_back(t);
    }

    /// Number of DMA transfers still waiting.
    pub fn dma_pending(&self) -> usize {
        self.dma_queue.len()
    }

    /// Values captured by serviced DMA reads, in service order.
    pub fn dma_read_log(&self) -> &[u32] {
        &self.dma_read_log
    }

    /// Queued DMA transfers in service order (for snapshot capture).
    pub(crate) fn dma_queue_entries(&self) -> Vec<Dma> {
        self.dma_queue.iter().copied().collect()
    }

    /// Replaces the DMA queue and read log (snapshot restore).
    pub(crate) fn restore_dma(&mut self, queue: Vec<Dma>, read_log: Vec<u32>) {
        self.dma_queue = queue.into();
        self.dma_read_log = read_log;
    }

    /// Drops every stored RAM word. Used
    /// by snapshot restore before re-poking the captured image.
    pub(crate) fn clear_ram(&mut self) {
        self.pages.clear();
    }

    /// Services one queued DMA transfer, if any. Called by the machine on
    /// each free memory cycle. Returns true when a transfer was serviced.
    pub fn service_dma(&mut self) -> bool {
        match self.dma_queue.pop_front() {
            Some(Dma::Write { addr, value }) => {
                self.poke(addr, value);
                true
            }
            Some(Dma::Read { addr }) => {
                let v = self.peek(addr);
                self.dma_read_log.push(v);
                true
            }
            None => false,
        }
    }
}

/// The external interrupt prioritization logic.
///
/// "There is a single interrupt line onto the chip; when the line is
/// activated with interrupts enabled, a surprise sequence is initiated.
/// After the first dispatch, the global interrupt handler queries any
/// external prioritization logic to determine which device was requesting
/// service." (paper §3.3)
///
/// Register window (one word):
///
/// * read `+0` — id of the highest-priority pending device **plus one**
///   (0 = no device pending);
/// * write `+0` — acknowledge (clear) the device with the written id.
#[derive(Debug, Default)]
pub struct IntCtrl {
    pending: u32,
}

impl IntCtrl {
    /// A device (0–31) requests service; asserts the interrupt line.
    pub fn raise(&mut self, device: u32) {
        self.pending |= 1 << (device & 31);
    }

    /// Clears a device's request.
    pub fn clear(&mut self, device: u32) {
        self.pending &= !(1 << (device & 31));
    }

    /// The single interrupt line into the chip.
    pub fn line_asserted(&self) -> bool {
        self.pending != 0
    }

    /// Highest-priority (lowest-numbered) pending device.
    pub fn highest_pending(&self) -> Option<u32> {
        (self.pending != 0).then(|| self.pending.trailing_zeros())
    }

    /// The raw pending bitmask (bit *n* = device *n* requesting service).
    /// Exposed so checkpoints can capture controller state exactly.
    pub fn pending_raw(&self) -> u32 {
        self.pending
    }

    /// Overwrites the pending bitmask (snapshot restore).
    pub fn set_pending_raw(&mut self, raw: u32) {
        self.pending = raw;
    }
}

/// A device window on the physical bus, with the word offset inside it.
#[derive(Debug, Clone, Copy)]
enum Port {
    Nic(u32),
    IntCtrl,
    MapUnit(u32),
    Console,
}

/// The machine's device windows. Each sits at a fixed physical address
/// at the top of memory and answers only while its device is attached;
/// device windows are supervisor-only (the machine enforces that).
///
/// * **NIC** ([`NIC_ADDR`], [`NIC_WINDOW`] words) — see [`crate::nic`].
/// * **Interrupt controller** ([`INTCTRL_ADDR`], one word) — see
///   [`IntCtrl`].
/// * **Page-map unit** ([`MAPUNIT_ADDR`], three words), letting the
///   supervisor-mode page-fault handler manipulate the map from MIPS
///   code: `+0` read — the mapped (24-bit) address of the last fault;
///   `+0` write — latch a virtual page number for a following map;
///   `+1` read — number of resident pages; `+1` write — map the latched
///   page to the written frame number; `+2` write — unmap the written
///   virtual page number.
/// * **Console** ([`CONSOLE_ADDR`], one word), an output peripheral on
///   the virtual address bus ("any peripherals on the virtual address
///   bus must be protected from user level processes", so user code
///   reaches it through a monitor call): `+0` write — append the word
///   to the console log; `+0` read — words written so far.
impl Machine {
    fn port_at(&self, pa: u32) -> Option<Port> {
        if pa < NIC_ADDR {
            return None;
        }
        let (port, attached) = if pa < NIC_ADDR + NIC_WINDOW {
            (Port::Nic(pa - NIC_ADDR), self.nic.is_some())
        } else if pa == INTCTRL_ADDR {
            (Port::IntCtrl, self.int_ctrl.is_some())
        } else if (MAPUNIT_ADDR..MAPUNIT_ADDR + 3).contains(&pa) {
            (Port::MapUnit(pa - MAPUNIT_ADDR), self.page_map.is_some())
        } else if pa == CONSOLE_ADDR {
            (Port::Console, self.console.is_some())
        } else {
            return None;
        };
        attached.then_some(port)
    }

    /// Whether `pa` falls inside an attached device's window.
    pub(crate) fn is_device(&self, pa: u32) -> bool {
        self.port_at(pa).is_some()
    }

    /// The lowest address of any attached device window (`u32::MAX`
    /// with none): addresses below it can skip the window probe.
    pub(crate) fn device_floor(&self) -> u32 {
        [
            (NIC_ADDR, self.nic.is_some()),
            (INTCTRL_ADDR, self.int_ctrl.is_some()),
            (MAPUNIT_ADDR, self.page_map.is_some()),
            (CONSOLE_ADDR, self.console.is_some()),
        ]
        .into_iter()
        .find_map(|(base, attached)| attached.then_some(base))
        .unwrap_or(u32::MAX)
    }

    /// Reads physical address `pa` as a memory cycle: a device register
    /// inside an attached window, RAM elsewhere.
    pub(crate) fn bus_read(&mut self, pa: u32) -> u32 {
        let Some(port) = self.port_at(pa) else {
            return self.mem.read(pa);
        };
        self.mem.reads += 1;
        match port {
            Port::Nic(off) => self.nic.as_ref().map_or(0, |n| n.read(off)),
            Port::IntCtrl => self
                .int_ctrl
                .as_ref()
                .and_then(IntCtrl::highest_pending)
                .map_or(0, |d| d + 1),
            Port::MapUnit(0) => self.fault_addr,
            Port::MapUnit(1) => self.page_map.as_ref().map_or(0, |m| m.len() as u32),
            Port::MapUnit(_) => 0,
            Port::Console => self.console.as_ref().map_or(0, |c| c.len() as u32),
        }
    }

    /// Writes `value` to physical address `pa` as a memory cycle, exactly
    /// as a supervisor-mode store would: a device register inside an
    /// attached window, RAM elsewhere. The host's hook for garbage on
    /// the bus (fault injection) and for driving a device window from a
    /// test.
    pub fn bus_write(&mut self, pa: u32, value: u32) {
        let Some(port) = self.port_at(pa) else {
            return self.mem.write(pa, value);
        };
        self.mem.writes += 1;
        match port {
            Port::Nic(off) => {
                if let Some(n) = self.nic.as_mut() {
                    n.write(off, value);
                }
            }
            Port::IntCtrl => {
                if let Some(c) = self.int_ctrl.as_mut() {
                    c.clear(value);
                }
            }
            Port::MapUnit(0) => self.map_select = value,
            Port::MapUnit(off) => {
                if let Some(m) = self.page_map.as_mut() {
                    if off == 1 {
                        m.map(self.map_select, value);
                    } else if off == 2 {
                        m.unmap(value);
                    }
                }
            }
            Port::Console => {
                if let Some(c) = self.console.as_mut() {
                    c.push(value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu::{PageMap, PAGE_WORDS};
    use mips_core::Program;

    #[test]
    fn zero_fill_and_round_trip() {
        let mut m = Memory::new();
        assert_eq!(m.read(100), 0);
        m.write(100, 42);
        assert_eq!(m.read(100), 42);
        assert_eq!(m.reads, 2);
        assert_eq!(m.writes, 1);
        // peek/poke do not count cycles
        m.poke(200, 7);
        assert_eq!(m.peek(200), 7);
        assert_eq!(m.reads, 2);
        assert_eq!(m.writes, 1);
    }

    #[test]
    fn pages_are_independent() {
        let mut m = Memory::new();
        m.poke(0, 1);
        m.poke(PAGE, 2);
        m.poke(PAGE * 1000 + 5, 3);
        assert_eq!(m.peek(0), 1);
        assert_eq!(m.peek(PAGE), 2);
        assert_eq!(m.peek(PAGE * 1000 + 5), 3);
    }

    #[test]
    fn dma_queue_services_in_order() {
        let mut m = Memory::new();
        m.poke(7, 123);
        m.queue_dma(Dma::Write { addr: 5, value: 50 });
        m.queue_dma(Dma::Read { addr: 7 });
        assert_eq!(m.dma_pending(), 2);
        assert!(m.service_dma());
        assert_eq!(m.peek(5), 50);
        assert!(m.service_dma());
        assert_eq!(m.dma_read_log(), &[123]);
        assert!(!m.service_dma());
    }

    fn bare() -> Machine {
        Machine::new(Program::new(Vec::new()))
    }

    #[test]
    fn windows_answer_only_once_their_device_is_attached() {
        let mut m = bare();
        m.mem_mut().poke(CONSOLE_ADDR, 99);
        assert!(!m.is_device(CONSOLE_ADDR));
        assert_eq!(m.device_floor(), u32::MAX);
        assert_eq!(m.bus_read(CONSOLE_ADDR), 99, "RAM until attached");
        m.attach_console();
        assert!(m.is_device(CONSOLE_ADDR));
        assert!(!m.is_device(CONSOLE_ADDR + 1), "the gap after it is RAM");
        assert_eq!(m.device_floor(), CONSOLE_ADDR);
        m.attach_int_ctrl();
        assert_eq!(m.device_floor(), INTCTRL_ADDR);
        m.bus_write(CONSOLE_ADDR, 0x1_68);
        assert_eq!(m.console(), &[0x1_68]);
        assert_eq!(m.bus_read(CONSOLE_ADDR), 1, "words written so far");
        assert_eq!(m.mem().peek(CONSOLE_ADDR), 99, "RAM behind the window");
        assert_eq!(
            (m.mem().reads, m.mem().writes),
            (2, 1),
            "device cycles count"
        );
    }

    #[test]
    fn int_ctrl_priority_and_ack() {
        let mut m = bare();
        m.attach_int_ctrl();
        assert!(!m.int_ctrl().unwrap().line_asserted());
        let c = m.int_ctrl_mut().unwrap();
        c.raise(5);
        c.raise(2);
        assert!(m.int_ctrl().unwrap().line_asserted());
        assert_eq!(m.int_ctrl().unwrap().highest_pending(), Some(2));
        assert_eq!(m.bus_read(INTCTRL_ADDR), 3); // device 2, plus one
        m.bus_write(INTCTRL_ADDR, 2); // ack device 2
        assert_eq!(m.int_ctrl().unwrap().highest_pending(), Some(5));
        m.bus_write(INTCTRL_ADDR, 5);
        assert!(!m.int_ctrl().unwrap().line_asserted());
        assert_eq!(m.bus_read(INTCTRL_ADDR), 0);
    }

    #[test]
    fn map_unit_window_updates_the_owned_map() {
        let mut m = bare();
        m.attach_page_map(PageMap::new());
        m.fault_addr = 0xabcd;
        assert_eq!(m.bus_read(MAPUNIT_ADDR), 0xabcd);
        assert_eq!(m.bus_read(MAPUNIT_ADDR + 1), 0);
        m.bus_write(MAPUNIT_ADDR, 3); // select vpage 3
        m.bus_write(MAPUNIT_ADDR + 1, 9); // map to frame 9
        assert_eq!(m.bus_read(MAPUNIT_ADDR + 1), 1);
        assert_eq!(
            m.page_map().unwrap().translate(3 * PAGE_WORDS),
            Some(9 * PAGE_WORDS)
        );
        m.bus_write(MAPUNIT_ADDR + 2, 3); // unmap
        assert!(m.page_map().unwrap().is_empty());
    }
}
