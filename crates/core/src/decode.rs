//! Trace decoding: turning the monitor's raw bus records back into
//! misses and instrumentation events.
//!
//! The escape encoding is positional, as in the paper: an uncached read
//! of an odd address in the reserved range announces an event opcode;
//! the next N uncached odd-address reads *by the same CPU* carry the
//! payload values. Cache misses interleaved with an escape sequence are
//! reads of even addresses and cannot be confused with it.
//!
//! [`CpuState`] is what the decoded events drive on each CPU: the
//! user/OS/idle mode, the running pid and the open operation classes.
//! The analyzer owns one per CPU, and the timeline reads that same copy
//! when it is fed by the analyzer.

use oscar_machine::addr::CpuId;
use oscar_machine::fasthash::FastMap;
use oscar_machine::monitor::BusRecord;
use oscar_machine::BusKind;
use oscar_os::{Mode, OpClass, OsEvent};

/// One decoded trace item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decoded {
    /// A cache fill (read or read-exclusive).
    Fill {
        /// The raw record.
        rec: BusRecord,
        /// Write (read-exclusive) fill.
        write: bool,
    },
    /// An ownership upgrade (write to a shared line).
    Upgrade {
        /// The raw record.
        rec: BusRecord,
    },
    /// A write-back of a dirty line (buffered; no CPU stall).
    WriteBack {
        /// The raw record.
        rec: BusRecord,
    },
    /// A decoded instrumentation event.
    Event {
        /// Time of the opcode read.
        time: u64,
        /// Emitting CPU.
        cpu: CpuId,
        /// The event.
        event: OsEvent,
    },
}

#[derive(Debug, Default, Clone)]
struct Pending {
    opcode: u32,
    time: u64,
    payloads: Vec<u32>,
    needed: usize,
}

/// Streaming decoder: feed records in trace order, receive decoded
/// items.
#[derive(Debug)]
pub struct Decoder {
    pending: Vec<Option<Pending>>,
    /// Escape reads that did not decode (protocol errors; must stay 0).
    pub undecodable: u64,
}

impl Decoder {
    /// A decoder for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        Decoder {
            pending: vec![None; num_cpus],
            undecodable: 0,
        }
    }

    /// Feeds one record; returns the decoded item, if any completes.
    pub fn push(&mut self, rec: BusRecord) -> Option<Decoded> {
        match rec.kind {
            BusKind::Read => Some(Decoded::Fill { rec, write: false }),
            BusKind::ReadEx => Some(Decoded::Fill { rec, write: true }),
            BusKind::Upgrade => Some(Decoded::Upgrade { rec }),
            BusKind::WriteBack => Some(Decoded::WriteBack { rec }),
            BusKind::UncachedRead => self.push_escape(rec),
        }
    }

    fn push_escape(&mut self, rec: BusRecord) -> Option<Decoded> {
        let i = rec.cpu.index();
        if let Some(p) = &mut self.pending[i] {
            p.payloads.push(OsEvent::decode_payload(rec.paddr));
            if p.payloads.len() == p.needed {
                let p = self.pending[i].take().expect("pending exists");
                return match OsEvent::decode(p.opcode, &p.payloads) {
                    Some(event) => Some(Decoded::Event {
                        time: p.time,
                        cpu: rec.cpu,
                        event,
                    }),
                    None => {
                        self.undecodable += 1;
                        None
                    }
                };
            }
            return None;
        }
        let Some(opcode) = OsEvent::decode_opcode(rec.paddr) else {
            self.undecodable += 1;
            return None;
        };
        let needed = OsEvent::payload_count(opcode);
        if needed == 0 {
            return match OsEvent::decode(opcode, &[]) {
                Some(event) => Some(Decoded::Event {
                    time: rec.time,
                    cpu: rec.cpu,
                    event,
                }),
                None => {
                    self.undecodable += 1;
                    None
                }
            };
        }
        self.pending[i] = Some(Pending {
            opcode,
            time: rec.time,
            payloads: Vec::with_capacity(needed),
            needed,
        });
        None
    }
}

/// One CPU's mode and operation state as the escape events drive it:
/// the OS and idle flags, the running pid, the open operation classes
/// (innermost last) and the class stacks of the pids switched away
/// from.
#[derive(Debug, Clone)]
pub struct CpuState {
    in_os: bool,
    in_idle: bool,
    pid: u32,
    stack: Vec<OpClass>,
    saved: FastMap<u32, Vec<OpClass>>,
}

impl Default for CpuState {
    /// User mode under the idle pid (`u32::MAX`), so the classes a CPU
    /// opened before the window's first `PidChange { pid: u32::MAX }`
    /// are still open after it.
    fn default() -> Self {
        CpuState {
            in_os: false,
            in_idle: false,
            pid: u32::MAX,
            stack: Vec::new(),
            saved: FastMap::default(),
        }
    }
}

impl CpuState {
    /// Applies one decoded event's mode, operation and pid transition.
    pub fn apply(&mut self, ev: OsEvent) {
        match ev {
            OsEvent::EnterOs(class) => {
                self.in_os = true;
                self.stack.push(class);
            }
            OsEvent::OpReclass(class) => {
                if let Some(top) = self.stack.last_mut() {
                    *top = class;
                }
            }
            OsEvent::OpEnd => {
                self.stack.pop();
            }
            // The class stack survives an OS exit: a blocked operation
            // resumes where it left off.
            OsEvent::ExitOs => self.in_os = false,
            OsEvent::EnterIdle => self.in_idle = true,
            OsEvent::ExitIdle => {
                // The dispatcher runs next: kernel work without its own
                // operation marker.
                self.in_idle = false;
                self.in_os = true;
            }
            OsEvent::PidChange { pid } => {
                let old = std::mem::take(&mut self.stack);
                self.saved.insert(self.pid, old);
                self.stack = self.saved.remove(&pid).unwrap_or_default();
                self.pid = pid;
            }
            OsEvent::TraceStart
            | OsEvent::TlbSet { .. }
            | OsEvent::CtxEnter(_)
            | OsEvent::CtxExit
            | OsEvent::BlockOp { .. }
            | OsEvent::IcacheFlush { .. } => {}
        }
    }

    /// In the idle loop.
    pub fn in_idle(&self) -> bool {
        self.in_idle
    }

    /// The mode the CPU's references count under.
    pub fn mode(&self) -> Mode {
        if self.in_os {
            Mode::Kernel
        } else if self.in_idle {
            Mode::Idle
        } else {
            Mode::User
        }
    }

    /// The innermost open operation class, if any.
    pub fn top(&self) -> Option<OpClass> {
        self.stack.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_machine::addr::PAddr;
    use oscar_os::OpClass;

    fn rec(cpu: u8, paddr: PAddr, kind: BusKind) -> BusRecord {
        BusRecord {
            time: 0,
            cpu: CpuId(cpu),
            paddr,
            kind,
            sub: 0,
        }
    }

    fn escape_records(cpu: u8, ev: OsEvent) -> Vec<BusRecord> {
        ev.encode()
            .into_iter()
            .map(|a| rec(cpu, a, BusKind::UncachedRead))
            .collect()
    }

    #[test]
    fn decodes_simple_event() {
        let mut d = Decoder::new(4);
        let recs = escape_records(1, OsEvent::ExitOs);
        assert_eq!(recs.len(), 1);
        match d.push(recs[0]) {
            Some(Decoded::Event { event, cpu, .. }) => {
                assert_eq!(event, OsEvent::ExitOs);
                assert_eq!(cpu, CpuId(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decodes_payload_event_with_interleaved_misses() {
        let mut d = Decoder::new(4);
        let ev = OsEvent::TlbSet {
            index: 5,
            vpn: 1000,
            ppn: 77,
            pid: 3,
        };
        let recs = escape_records(0, ev);
        assert_eq!(recs.len(), 5);
        // Interleave instruction misses (even addresses) by the same CPU
        // and escapes by another CPU.
        assert!(d.push(recs[0]).is_none());
        assert!(matches!(
            d.push(rec(0, PAddr::new(0x4000), BusKind::Read)),
            Some(Decoded::Fill { .. })
        ));
        assert!(d.push(recs[1]).is_none());
        // CPU 2 emits its own complete event in the middle.
        for r in escape_records(2, OsEvent::EnterOs(OpClass::IoSyscall)) {
            match d.push(r) {
                Some(Decoded::Event { event, .. }) => {
                    assert_eq!(event, OsEvent::EnterOs(OpClass::IoSyscall));
                }
                None => panic!("cpu2 event must decode"),
                other => panic!("{other:?}"),
            }
        }
        assert!(d.push(recs[2]).is_none());
        assert!(d.push(recs[3]).is_none());
        match d.push(recs[4]) {
            Some(Decoded::Event { event, .. }) => assert_eq!(event, ev),
            other => panic!("{other:?}"),
        }
        assert_eq!(d.undecodable, 0);
    }

    #[test]
    fn nonescape_kinds_pass_through() {
        let mut d = Decoder::new(1);
        assert!(matches!(
            d.push(rec(0, PAddr::new(0x100), BusKind::ReadEx)),
            Some(Decoded::Fill { write: true, .. })
        ));
        assert!(matches!(
            d.push(rec(0, PAddr::new(0x100), BusKind::Upgrade)),
            Some(Decoded::Upgrade { .. })
        ));
        assert!(matches!(
            d.push(rec(0, PAddr::new(0x100), BusKind::WriteBack)),
            Some(Decoded::WriteBack { .. })
        ));
    }

    #[test]
    fn garbage_escape_counts_undecodable() {
        let mut d = Decoder::new(1);
        // Odd address below the escape base, not part of any sequence.
        assert!(d
            .push(rec(0, PAddr::new(0x1001), BusKind::UncachedRead))
            .is_none());
        assert_eq!(d.undecodable, 1);
    }
}
