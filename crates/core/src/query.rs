//! Compiling and running [`QuerySpec`]s against the simulator: the
//! engine behind `oscar-reports query`.
//!
//! The spec language and the aggregation state live in dependency-free
//! `oscar-obs` ([`oscar_obs::query`]); this module supplies the row
//! vocabulary and one evaluator for all four sources. Each source is a
//! table of fields over its row type: a name, a kind (closed
//! vocabulary, text, flag or number) and a getter, from which the
//! group label follows. One compile step validates every field and
//! value against the table up front (so a typo fails fast, before any
//! simulation runs), and one accept routine filters, keys and samples
//! every row. The `records` source filters the enriched [`QueryRow`]
//! the analyzer offers for every monitor record, on `cpu`, `kind`,
//! `time` and `addr` like on any other field.
//!
//! Accepted rows fold straight into a [`GroupTable`] — memory stays
//! O(groups) however long the trace — and the whole path inherits the
//! simulator's determinism: the same spec renders byte-identical JSON
//! for any `--jobs`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use oscar_obs::query::{parse_num, Agg, Filter, GroupTable, QuerySource, QuerySpec};
use oscar_obs::WaitEdge;
use oscar_os::{KernelRegion, LockFamily, LockPhase, LockSpan, Mode, OpClass};

use crate::analyze::QueryRow;
use crate::classify::ArchClass;
use crate::experiment::ExperimentConfig;
use crate::hotline::HotlineRow;
use crate::pipeline::{run_streaming, run_streaming_rows, StreamOptions};

/// The `class` vocabulary, in [`class_bits`] order.
const CLASS_LABELS: [&str; 6] = [
    "cold",
    "disp_os",
    "disp_os_same",
    "disp_ap",
    "sharing",
    "inval",
];

/// Every kernel region, in declaration order, so a region's vocabulary
/// bit is its discriminant (the enum has no `ALL` const of its own).
const REGIONS: [KernelRegion; 17] = [
    KernelRegion::Text,
    KernelRegion::ProcTable,
    KernelRegion::Pfdat,
    KernelRegion::BufHeaders,
    KernelRegion::InodeTable,
    KernelRegion::RunQueue,
    KernelRegion::FreePgBuck,
    KernelRegion::Callout,
    KernelRegion::MiscData,
    KernelRegion::PageTables,
    KernelRegion::KernelStack,
    KernelRegion::Pcb,
    KernelRegion::Eframe,
    KernelRegion::URest,
    KernelRegion::BufData,
    KernelRegion::PipeBuf,
    KernelRegion::FramePool,
];

/// The highest CPU index a `records` filter may list: a machine has at
/// most 255 CPUs (`MachineConfig::num_cpus` is a `u8`).
const MAX_CPU: u64 = u8::MAX as u64 - 1;

/// The [`CLASS_LABELS`] bits a class satisfies. A same-epoch OS
/// displacement is still an OS displacement, so it matches both
/// `disp_os` and `disp_os_same`, and groups under the more specific
/// (higher) one.
fn class_bits(c: ArchClass) -> u64 {
    match c {
        ArchClass::Cold => 1,
        ArchClass::DispOs { same_epoch: false } => 2,
        ArchClass::DispOs { same_epoch: true } => 2 | 4,
        ArchClass::DispAp => 8,
        ArchClass::Sharing => 16,
        ArchClass::Inval => 32,
    }
}

fn region_labels() -> Vec<&'static str> {
    REGIONS.iter().map(|r| r.label()).collect()
}

fn region_bit(r: KernelRegion) -> u64 {
    1 << r as usize
}

/// How a field filters and groups, with its getter over the row type
/// `R`.
enum Kind<R> {
    /// A closed vocabulary. The getter returns the labels the row
    /// satisfies as bits (bit `i` is label `i`); the row groups under
    /// its highest set bit's label, or `-` when it has none.
    Vocab(Vec<&'static str>, fn(&R) -> u64),
    /// Free text, matched by prefix (`true`) or exactly; groups under
    /// the text itself.
    Text(fn(&R) -> &str, bool),
    /// A flag, filtered by `true`/`false`; groups under the first label
    /// when set and the second when clear.
    Flag([&'static str; 2], fn(&R) -> bool),
    /// A number, filtered by a value list or an inclusive range. It
    /// groups as `{group}{n}`; without a group prefix it is continuous
    /// and cannot group. Listed values above `max` are rejected.
    Num {
        group: Option<&'static str>,
        max: Option<u64>,
        get: fn(&R) -> u64,
    },
}

impl<R> Kind<R> {
    fn num(group: Option<&'static str>, get: fn(&R) -> u64) -> Self {
        Kind::Num {
            group,
            max: None,
            get,
        }
    }

    fn push_label(&self, row: &R, key: &mut String) {
        match self {
            Kind::Vocab(labels, bits) => key.push_str(match bits(row) {
                0 => "-",
                b => labels[63 - b.leading_zeros() as usize],
            }),
            Kind::Text(text, _) => key.push_str(text(row)),
            Kind::Flag([set, clear], get) => key.push_str(if get(row) { set } else { clear }),
            Kind::Num { group, get, .. } => {
                let _ = write!(key, "{}{}", group.unwrap_or(""), get(row));
            }
        }
    }
}

/// One source's field table: every queryable field of its row type, in
/// the order error messages list them, and the fields `sum:`/`hist:`
/// may read.
struct Table<R> {
    fields: Vec<(&'static str, Kind<R>)>,
    values: &'static [&'static str],
}

/// A compiled `--where` clause over one field.
#[derive(Debug, Clone)]
enum Pred {
    /// Vocabulary bits, one of which the row must satisfy.
    Bits(u64),
    /// Texts, one of which the row's text must match.
    Text(Vec<String>),
    Flag(bool),
    /// Numbers, one of which the row's must equal.
    OneOf(Vec<u64>),
    /// An inclusive numeric range.
    Range(u64, u64),
}

impl Pred {
    fn matches<R>(&self, kind: &Kind<R>, row: &R) -> bool {
        match (kind, self) {
            (Kind::Vocab(_, bits), Pred::Bits(want)) => bits(row) & want != 0,
            (Kind::Text(text, prefix), Pred::Text(want)) => {
                let t = text(row);
                want.iter().any(|w| {
                    if *prefix {
                        t.starts_with(w.as_str())
                    } else {
                        t == w
                    }
                })
            }
            (Kind::Flag(_, get), Pred::Flag(want)) => get(row) == *want,
            (Kind::Num { get, .. }, Pred::OneOf(want)) => want.contains(&get(row)),
            (Kind::Num { get, .. }, Pred::Range(lo, hi)) => (*lo..=*hi).contains(&get(row)),
            _ => unreachable!("a predicate is compiled for its field's kind"),
        }
    }
}

/// The position of `value` in `labels`, or an error listing them.
fn lookup(field: &str, value: &str, labels: &[&str]) -> Result<usize, String> {
    labels
        .iter()
        .position(|l| *l == value)
        .ok_or_else(|| format!("unknown {field} `{value}` (one of: {})", labels.join(", ")))
}

fn oneof_values(f: &Filter) -> Result<&[String], String> {
    match f {
        Filter::OneOf { values, .. } => Ok(values),
        Filter::Range { field, .. } => {
            Err(format!("--where {field}: takes a value list, not a range"))
        }
    }
}

impl<R> Table<R> {
    fn new(values: &'static [&'static str]) -> Self {
        Table {
            fields: Vec::new(),
            values,
        }
    }

    fn push(&mut self, name: &'static str, kind: Kind<R>) -> &mut Self {
        self.fields.push((name, kind));
        self
    }

    /// The field named `name`, or an error listing the source's fields.
    fn find(&self, source: &str, name: &str) -> Result<usize, String> {
        self.fields
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| {
                let names: Vec<&str> = self.fields.iter().map(|(n, _)| *n).collect();
                format!(
                    "unknown {source} field `{name}` (one of: {})",
                    names.join(", ")
                )
            })
    }

    /// Validates `spec`'s clauses, group key and value field against
    /// the table, in that order.
    fn compile(&self, spec: &QuerySpec) -> Result<CompiledQuery, String> {
        let source = spec.source.label();
        let mut preds = Vec::new();
        for f in &spec.filters {
            let i = self.find(source, f.field())?;
            let (name, kind) = &self.fields[i];
            let pred = match kind {
                Kind::Vocab(labels, _) => {
                    let mut bits = 0;
                    for v in oneof_values(f)? {
                        bits |= 1 << lookup(name, v, labels)?;
                    }
                    Pred::Bits(bits)
                }
                Kind::Text(..) => Pred::Text(oneof_values(f)?.to_vec()),
                Kind::Flag(..) => match oneof_values(f)? {
                    [v] => Pred::Flag(lookup(name, v, &["true", "false"])? == 0),
                    _ => return Err(format!("--where {name}: needs exactly one of true, false")),
                },
                Kind::Num { max, .. } => match f {
                    Filter::Range { lo, hi, .. } => Pred::Range(*lo, *hi),
                    Filter::OneOf { values, .. } => {
                        let nums = values
                            .iter()
                            .map(|v| parse_num(v).map_err(|e| format!("--where {name}: {e}")))
                            .collect::<Result<Vec<u64>, String>>()?;
                        let max = max.unwrap_or(u64::MAX);
                        if let Some(n) = nums.iter().find(|&&n| n > max) {
                            return Err(format!("--where {name}: `{n}` out of range (0..={max})"));
                        }
                        Pred::OneOf(nums)
                    }
                },
            };
            preds.push((i, pred));
        }

        let mut group = Vec::new();
        for g in &spec.group_by {
            let i = self.find(source, g)?;
            if let Kind::Num { group: None, .. } = self.fields[i].1 {
                return Err(format!("cannot group by continuous field `{g}`"));
            }
            group.push(i);
        }

        let value = match spec.agg.value_field() {
            None => None,
            Some(v) if self.values.contains(&v) => Some(self.find(source, v)?),
            Some(other) => {
                return Err(format!(
                    "{source} aggregation needs value field {}, not `{other}`",
                    self.values.join("|")
                ))
            }
        };

        Ok(CompiledQuery {
            source: spec.source,
            agg: spec.agg.clone(),
            top: spec.top,
            preds,
            group,
            value,
        })
    }

    /// Whether `row` passes every clause of `q` (compiled against this
    /// table).
    fn passes(&self, q: &CompiledQuery, row: &R) -> bool {
        q.preds
            .iter()
            .all(|(i, p)| p.matches(&self.fields[*i].1, row))
    }

    /// Folds `row` into `table` under its group key if it passes every
    /// clause of `q` (compiled against this table).
    fn offer(&self, q: &CompiledQuery, row: &R, key: &mut String, table: &mut GroupTable) {
        if !self.passes(q, row) {
            return;
        }
        key.clear();
        for (n, &i) in q.group.iter().enumerate() {
            if n > 0 {
                key.push(' ');
            }
            self.fields[i].1.push_label(row, key);
        }
        if q.group.is_empty() {
            key.push_str("all");
        }
        let value = q.value.map_or(0, |i| match self.fields[i].1 {
            Kind::Num { get, .. } => get(row),
            _ => unreachable!("value fields are numeric"),
        });
        table.accept(key, value);
    }
}

/// The `records` source: one enriched row per monitor record.
fn records() -> Table<QueryRow> {
    let mut t: Table<QueryRow> = Table::new(&["time", "addr"]);
    t.push(
        "cpu",
        Kind::Num {
            group: Some("cpu"),
            max: Some(MAX_CPU),
            get: |r| u64::from(r.cpu),
        },
    )
    .push(
        "kind",
        Kind::Vocab(
            vec!["read", "readex", "upgrade", "writeback", "escape"],
            |r| 1 << r.kind.code(),
        ),
    )
    .push(
        "mode",
        Kind::Vocab(vec!["os", "user", "idle"], |r| match r.mode {
            Mode::Kernel => 1,
            Mode::User => 2,
            Mode::Idle => 4,
        }),
    )
    .push(
        "fetch",
        Kind::Vocab(vec!["instr", "data"], |r| if r.instr { 1 } else { 2 }),
    )
    .push(
        "class",
        Kind::Vocab(CLASS_LABELS.to_vec(), |r| r.class.map_or(0, class_bits)),
    )
    .push(
        "op",
        Kind::Vocab(OpClass::ALL.iter().map(|o| o.label()).collect(), |r| {
            r.op.map_or(0, |o| 1 << o.code())
        }),
    )
    .push(
        "region",
        Kind::Vocab(region_labels(), |r| r.region.map_or(0, region_bit)),
    )
    .push("time", Kind::num(None, |r| r.time))
    .push("addr", Kind::num(None, |r| r.paddr));
    t
}

/// A kernel lock span and the measured window's start cycle (spans
/// carry absolute cycles; the `start` field is window-relative).
type LockRow = (LockSpan, u64);

/// The `locks` source: one row per spin/hold interval.
fn locks() -> Table<LockRow> {
    let mut t: Table<LockRow> = Table::new(&["dur", "start"]);
    t.push(
        "family",
        Kind::Vocab(
            LockFamily::ALL.iter().map(|f| f.label()).collect(),
            |(s, _)| 1 << s.lock.family.index(),
        ),
    )
    .push(
        "instance",
        Kind::num(Some("i"), |(s, _)| u64::from(s.lock.instance)),
    )
    .push("cpu", Kind::num(Some("cpu"), |(s, _)| s.cpu.index() as u64))
    .push(
        "phase",
        Kind::Vocab(vec!["spin", "hold"], |(s, _)| match s.phase {
            LockPhase::Spin => 1,
            LockPhase::Hold => 2,
        }),
    )
    .push(
        "start",
        Kind::num(None, |(s, m)| s.start.saturating_sub(*m)),
    )
    .push(
        "dur",
        Kind::num(None, |(s, _)| s.end.saturating_sub(s.start)),
    );
    t
}

/// The `hotlines` source: one row per cache line shared by 2+ CPUs.
fn hotlines() -> Table<HotlineRow> {
    let mut t: Table<HotlineRow> = Table::new(&["misses", "invals", "churn", "sharers", "score"]);
    t.push("symbol", Kind::Text(|r| &r.symbol, true))
        .push(
            "region",
            Kind::Vocab(region_labels(), |r| region_bit(r.region)),
        )
        .push(
            "false_sharing",
            Kind::Flag(["false_sharing", "true_sharing"], |r| r.false_sharing),
        )
        .push("sharers", Kind::num(None, |r| u64::from(r.sharers)))
        .push("misses", Kind::num(None, HotlineRow::total_misses))
        .push("invals", Kind::num(None, |r| r.invals))
        .push("churn", Kind::num(None, |r| r.churn))
        .push("upgrades", Kind::num(None, |r| r.upgrades))
        .push("score", Kind::num(None, |r| r.score))
        .push("addr", Kind::num(None, |r| r.paddr));
    t
}

/// A wait-for edge and the name of its lock.
type WaitRow<'a> = (&'a WaitEdge, &'a str);

/// The `waits` source: one row per wait-for edge of the causal
/// profiler.
fn waits<'a>() -> Table<WaitRow<'a>> {
    let mut t: Table<WaitRow<'a>> = Table::new(&["duration"]);
    t.push("waiter", Kind::num(Some("cpu"), |(e, _)| e.waiter as u64))
        .push("holder", Kind::num(Some("cpu"), |(e, _)| e.holder as u64))
        .push("lock", Kind::Text(|(_, lock)| lock, true))
        .push("duration", Kind::num(None, |(e, _)| e.duration()))
        .push("holder_op", Kind::Text(|(e, _)| &e.holder_op, false))
        .push(
            "truncated",
            Kind::Flag(["truncated", "complete"], |(e, _)| e.truncated),
        );
    t
}

/// A [`QuerySpec`] validated against its source's field table. Compile
/// once (fail fast on typos), then run against any number of
/// configurations.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    source: QuerySource,
    agg: Agg,
    top: Option<usize>,
    /// The `--where` clauses, as (field index, predicate).
    preds: Vec<(usize, Pred)>,
    /// The group-key fields, in key order.
    group: Vec<usize>,
    /// The field `sum:`/`hist:` reads.
    value: Option<usize>,
}

impl CompiledQuery {
    /// The `--where` clauses of a `records` query as a row predicate:
    /// the filter [`run_compiled`] applies to each row the analyzer
    /// offers. Panics for the other sources, whose rows are not
    /// [`QueryRow`]s.
    pub fn record_filter(&self) -> impl Fn(&QueryRow) -> bool + '_ {
        assert_eq!(
            self.source,
            QuerySource::Records,
            "record_filter needs a records query"
        );
        let t = records();
        move |row| t.passes(self, row)
    }
}

/// Validates `spec` against its source's field and value vocabulary and
/// builds the execution plan. No simulation runs here.
pub fn compile(spec: &QuerySpec) -> Result<CompiledQuery, String> {
    match spec.source {
        QuerySource::Records => records().compile(spec),
        QuerySource::Locks => locks().compile(spec),
        QuerySource::Hotlines => hotlines().compile(spec),
        QuerySource::Waits => waits().compile(spec),
    }
}

/// The result of one query over one run.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The aggregated groups.
    pub table: GroupTable,
    /// Monitor records the run produced — the row universe of the
    /// `records` source (a query with no filters matches exactly this
    /// many rows).
    pub trace_records: u64,
}

/// Runs `spec` against a fresh simulation of `config` and returns the
/// aggregated table. The `records` source folds rows as the analyzer
/// offers them (peak memory independent of trace length); the other
/// sources fold the lock spans, hot lines or wait-for edges the run
/// collected.
pub fn run_query(config: &ExperimentConfig, spec: &QuerySpec) -> Result<QueryRun, String> {
    let compiled = compile(spec)?;
    run_compiled(config, &compiled)
}

/// [`run_query`] for an already-[`compile`]d query (so a multi-workload
/// driver validates once, before the first simulation).
pub fn run_compiled(
    config: &ExperimentConfig,
    compiled: &CompiledQuery,
) -> Result<QueryRun, String> {
    let mut table = GroupTable::new(compiled.agg.clone()).with_top(compiled.top);
    let mut key = String::new();
    let opts = StreamOptions {
        online_sweeps: false,
        ..StreamOptions::default()
    };
    let trace_records = match compiled.source {
        QuerySource::Records => {
            let shared = Rc::new(RefCell::new(table));
            let acc = Rc::clone(&shared);
            let (q, t) = (compiled.clone(), records());
            let sink = Box::new(move |row: &QueryRow| {
                t.offer(&q, row, &mut key, &mut acc.borrow_mut());
            });
            let (art, _an) = run_streaming_rows(config, &opts, sink);
            table = Rc::try_unwrap(shared)
                .expect("row sink must be dropped with the analyzer")
                .into_inner();
            art.trace_records
        }
        QuerySource::Locks => {
            let opts = StreamOptions {
                observe: true,
                ..opts
            };
            let (art, _an) = run_streaming(config, &opts);
            let t = locks();
            for s in art.obs.as_ref().map_or(&[][..], |o| &o.lock_spans) {
                t.offer(compiled, &(*s, art.measure_start), &mut key, &mut table);
            }
            art.trace_records
        }
        QuerySource::Hotlines => {
            // Every shared line is a row, not just the export's top-K:
            // aggregations must see the full population.
            let opts = StreamOptions {
                hotlines: true,
                hotlines_top: usize::MAX,
                ..opts
            };
            let (art, an) = run_streaming(config, &opts);
            let t = hotlines();
            for row in an.hotlines.as_deref().map_or(&[][..], |h| &h.top) {
                t.offer(compiled, row, &mut key, &mut table);
            }
            art.trace_records
        }
        QuerySource::Waits => {
            let opts = StreamOptions {
                observe: true,
                ..opts
            };
            let (mut art, _an) = run_streaming(config, &opts);
            let obs = art.obs.take();
            let (edges, locks) = match obs.as_deref() {
                Some(o) => crate::causal::wait_edges_for_run(&art, o),
                None => (Vec::new(), Vec::new()),
            };
            let t = waits();
            for e in &edges {
                let lock = locks.get(e.lock as usize).map_or("-", String::as_str);
                t.offer(compiled, &(e, lock), &mut key, &mut table);
            }
            art.trace_records
        }
    };
    Ok(QueryRun {
        table,
        trace_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_machine::BusKind;

    fn spec(
        source: &str,
        wheres: &[&str],
        by: Option<&str>,
        agg: Option<&str>,
    ) -> Result<QuerySpec, String> {
        let ws: Vec<String> = wheres.iter().map(|s| s.to_string()).collect();
        QuerySpec::parse(source, &ws, by, agg, None)
    }

    fn row(cpu: u8, kind: BusKind, time: u64, paddr: u64) -> QueryRow {
        QueryRow {
            time,
            cpu,
            kind,
            paddr,
            mode: Mode::Kernel,
            instr: false,
            class: Some(ArchClass::Sharing),
            op: Some(OpClass::Interrupt),
            region: Some(KernelRegion::RunQueue),
        }
    }

    /// Offers `rows` to a `records` query and returns how many it kept.
    fn matched(wheres: &[&str], rows: &[QueryRow]) -> u64 {
        let q = compile(&spec("records", wheres, None, None).unwrap()).unwrap();
        let t = records();
        let mut table = GroupTable::new(Agg::Count);
        let mut key = String::new();
        for r in rows {
            t.offer(&q, r, &mut key, &mut table);
        }
        table.matched()
    }

    #[test]
    fn compile_validates_fields_and_values() {
        assert!(compile(&spec("records", &["cpu=0,2"], Some("kind,class"), None).unwrap()).is_ok());
        assert!(compile(&spec("records", &["bogus=1"], None, None).unwrap())
            .unwrap_err()
            .contains("unknown records field"));
        assert!(
            compile(&spec("records", &["class=warm"], None, None).unwrap())
                .unwrap_err()
                .contains("unknown class")
        );
        assert!(
            compile(&spec("records", &["kind=1..2"], None, None).unwrap())
                .unwrap_err()
                .contains("value list")
        );
        assert_eq!(
            compile(&spec("records", &["cpu=255"], None, None).unwrap()).unwrap_err(),
            "--where cpu: `255` out of range (0..=254)"
        );
        assert!(compile(&spec("records", &["cpu=40,63,70,254"], None, None).unwrap()).is_ok());
        assert!(
            compile(&spec("locks", &["family=Nosuch"], None, None).unwrap())
                .unwrap_err()
                .contains("unknown family")
        );
    }

    #[test]
    fn compile_rejects_bad_grouping_and_values() {
        assert!(compile(&spec("records", &[], Some("time"), None).unwrap())
            .unwrap_err()
            .contains("continuous"));
        assert!(
            compile(&spec("records", &[], None, Some("sum:dur")).unwrap())
                .unwrap_err()
                .contains("time|addr")
        );
        assert!(
            compile(&spec("locks", &[], None, Some("hist:addr")).unwrap())
                .unwrap_err()
                .contains("dur|start")
        );
        assert!(
            compile(&spec("locks", &[], Some("family,phase"), Some("hist:dur")).unwrap()).is_ok()
        );
    }

    #[test]
    fn repeated_range_filters_intersect() {
        let rows: Vec<QueryRow> = [299, 300, 500, 501]
            .iter()
            .map(|&t| row(0, BusKind::Read, t, 0))
            .collect();
        assert_eq!(matched(&["time=100..500", "time=300..900"], &rows), 2);
        assert_eq!(matched(&["time=100..299", "time=501.."], &rows), 0);
    }

    #[test]
    fn numeric_fields_accept_value_lists() {
        let rows: Vec<QueryRow> = (0..4u8)
            .map(|i| row(i, BusKind::Read, 10 * u64::from(i), 0x1000 * u64::from(i)))
            .collect();
        assert_eq!(matched(&["time=0,20,25"], &rows), 2);
        assert_eq!(matched(&["addr=0x1000,0x3000"], &rows), 2);
        assert_eq!(matched(&["cpu=1,3", "time=30"], &rows), 1);
        let wide = [row(40, BusKind::Read, 0, 0), row(63, BusKind::Read, 0, 0)];
        assert_eq!(matched(&["cpu=0..63"], &wide), 2);
        assert_eq!(matched(&["cpu=63"], &wide), 1);
    }

    /// `cpu`, `kind`, `addr` and `time` each gate a row on their own,
    /// bounds included, like the enriched fields.
    #[test]
    fn raw_record_fields_gate_each_row() {
        let r = [row(2, BusKind::ReadEx, 100, 0x4000)];
        for (pass, fail) in [
            ("cpu=2", "cpu=3"),
            ("kind=readex", "kind=writeback"),
            ("addr=0x4000..0x4000", "addr=0..0x3fff"),
            ("time=100..200", "time=101.."),
            ("mode=os", "mode=user"),
            ("region=run-queue", "region=pcb"),
        ] {
            assert_eq!(matched(&[pass], &r), 1, "{pass}");
            assert_eq!(matched(&[fail], &r), 0, "{fail}");
        }
    }

    /// A snooping machine may have up to 255 CPUs: on 100 of them, the
    /// `cpu=70` query must equal CPU 70's group of the unfiltered run.
    #[test]
    fn cpu_filter_reaches_cpus_past_64() {
        let rows: Vec<QueryRow> = (0..100u8)
            .flat_map(|cpu| {
                (0..3u64).map(move |k| row(cpu, BusKind::Read, k * 1000 + u64::from(cpu), 0x4000))
            })
            .collect();
        let table = |wheres: &[&str]| {
            let q =
                compile(&spec("records", wheres, Some("cpu"), Some("hist:time")).unwrap()).unwrap();
            let t = records();
            let mut table = GroupTable::new(q.agg.clone());
            let mut key = String::new();
            for r in &rows {
                t.offer(&q, r, &mut key, &mut table);
            }
            table.to_json()
        };
        let cpu70 = |json: &str| -> String {
            json.lines()
                .find(|l| l.starts_with("{\"key\": \"cpu70\""))
                .expect("CPU 70 has a group")
                .trim_end_matches(',')
                .trim_end_matches("]}")
                .to_string()
        };
        let all = table(&[]);
        assert!(all.contains("\"groups_total\": 100"));
        let one = table(&["cpu=70"]);
        assert!(one.contains("\"matched\": 3, \"groups_total\": 1"), "{one}");
        assert_eq!(cpu70(&one), cpu70(&all));
        assert_eq!(matched(&["cpu=254"], &[row(254, BusKind::Read, 0, 0)]), 1);
    }

    /// The group label `source`'s `field` gives `row`.
    fn label<R>(t: &Table<R>, source: &str, field: &str, row: &R) -> String {
        let mut key = String::new();
        t.fields[t.find(source, field).unwrap()]
            .1
            .push_label(row, &mut key);
        key
    }

    /// Vocabulary bits are the enums' positions in their label lists,
    /// so every member groups under its own label.
    #[test]
    fn vocabulary_groups_use_the_enum_labels() {
        let t = records();
        let mut r = row(5, BusKind::UncachedRead, 0, 0);
        assert_eq!(label(&t, "records", "cpu", &r), "cpu5");
        assert_eq!(label(&t, "records", "kind", &r), "escape");
        for op in OpClass::ALL {
            r.op = Some(op);
            assert_eq!(label(&t, "records", "op", &r), op.label());
        }
        for region in REGIONS {
            r.region = Some(region);
            assert_eq!(label(&t, "records", "region", &r), region.label());
        }
        r.op = None;
        assert_eq!(label(&t, "records", "op", &r), "-");
        let l = locks();
        for family in LockFamily::ALL {
            let span = LockSpan {
                lock: oscar_os::LockId {
                    family,
                    instance: 3,
                },
                cpu: oscar_machine::addr::CpuId(1),
                phase: LockPhase::Hold,
                start: 0,
                end: 0,
                truncated: false,
            };
            assert_eq!(label(&l, "locks", "family", &(span, 0)), family.label());
            assert_eq!(label(&l, "locks", "instance", &(span, 0)), "i3");
        }
    }

    #[test]
    fn hotlines_vocab_errors_list_fields_and_values() {
        // A valid query compiles without running any simulation.
        assert!(compile(
            &spec(
                "hotlines",
                &["false_sharing=true", "region=process-table,pfdat"],
                Some("symbol,region"),
                Some("sum:invals"),
            )
            .unwrap()
        )
        .is_ok());
        // Unknown fields list the full field vocabulary.
        let e = compile(&spec("hotlines", &["bogus=1"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("unknown hotlines field"), "{e}");
        assert!(
            e.contains(
                "symbol, region, false_sharing, sharers, misses, invals, churn, upgrades, \
                 score, addr"
            ),
            "{e}"
        );
        // Unknown values list the value vocabulary.
        let e = compile(&spec("hotlines", &["region=heap"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("unknown region"), "{e}");
        assert!(e.contains("run-queue"), "{e}");
        let e =
            compile(&spec("hotlines", &["false_sharing=maybe"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("one of: true, false"), "{e}");
        // Continuous fields cannot group; bad value fields list theirs.
        assert!(
            compile(&spec("hotlines", &[], Some("score"), None).unwrap())
                .unwrap_err()
                .contains("continuous")
        );
        assert!(
            compile(&spec("hotlines", &[], None, Some("sum:dur")).unwrap())
                .unwrap_err()
                .contains("misses|invals|churn|sharers|score")
        );
    }

    #[test]
    fn waits_vocab_compiles_and_rejects() {
        // A valid query compiles without running any simulation.
        assert!(compile(
            &spec(
                "waits",
                &["lock=Runqlk", "duration=100..", "truncated=false"],
                Some("lock,holder_op"),
                Some("sum:duration"),
            )
            .unwrap()
        )
        .is_ok());
        // Unknown fields list the full field vocabulary.
        let e = compile(&spec("waits", &["bogus=1"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("unknown waits field"), "{e}");
        assert!(
            e.contains("waiter, holder, lock, duration, holder_op, truncated"),
            "{e}"
        );
        // Bad boolean and continuous-group errors match the other
        // sources' phrasing.
        let e = compile(&spec("waits", &["truncated=maybe"], None, None).unwrap()).unwrap_err();
        assert!(e.contains("one of: true, false"), "{e}");
        assert!(
            compile(&spec("waits", &[], Some("duration"), None).unwrap())
                .unwrap_err()
                .contains("continuous")
        );
        assert!(compile(&spec("waits", &[], None, Some("sum:dur")).unwrap())
            .unwrap_err()
            .contains("value field duration"));
    }

    #[test]
    fn class_bits_make_disp_os_same_a_subset() {
        let mut same = row(0, BusKind::Read, 0, 0);
        same.class = Some(ArchClass::DispOs { same_epoch: true });
        let mut plain = same;
        plain.class = Some(ArchClass::DispOs { same_epoch: false });
        assert_eq!(matched(&["class=disp_os"], &[same, plain]), 2);
        assert_eq!(matched(&["class=disp_os_same"], &[same, plain]), 1);
        // The subset groups under its own, more specific label.
        let t = records();
        assert_eq!(label(&t, "records", "class", &same), "disp_os_same");
        assert_eq!(label(&t, "records", "class", &plain), "disp_os");
    }
}
