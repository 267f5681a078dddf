//! Spans recorded from outside the program.
//!
//! The benchmark may touch the program only through its public
//! functions, so a span is what those functions hand back: the client
//! times the whole session itself (the root span), and the children are
//! laid out in protocol order from the durations in the evaluator's
//! [`SessionReport`] and in the server's matching [`SessionOutcome`].
//! A child's length is measured by the program; its offset inside the
//! parent is inferred. Tracing inside the program is a later change.
//!
//! Spans of one session share its number. They stay in memory until the
//! run ends and are then written to `out/<workload>.trace.json`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use haac_runtime::SessionReport;
use haac_server::SessionOutcome;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The session this span belongs to (shared by all its spans).
    pub session: u64,
    /// This span's index within the session.
    pub id: u32,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Nanoseconds since the traced window opened.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A session's spans: one vector, indexed by span id, root first.
pub type SessionSpans = Vec<Span>;

/// Appends `name` as a child of `parent` covering `len_ns` from `at`,
/// cut off at the parent's end. Returns the child's id and its end.
fn child(
    spans: &mut SessionSpans,
    parent: u32,
    name: &'static str,
    at: u64,
    len_ns: u64,
) -> (u32, u64) {
    let Span { session, end_ns: parent_end, .. } = spans[parent as usize];
    let id = spans.len() as u32;
    let start_ns = at.min(parent_end);
    let end_ns = (at + len_ns).min(parent_end);
    spans.push(Span { session, id, parent: Some(parent), name, start_ns, end_ns });
    (id, end_ns)
}

/// The client half of a session's spans: the root the client timed
/// itself, and the evaluator's phases inside it.
pub fn client_spans(
    session: u64,
    start_ns: u64,
    end_ns: u64,
    evaluator: &SessionReport,
) -> SessionSpans {
    let mut spans =
        vec![Span { session, id: 0, parent: None, name: "client.session", start_ns, end_ns }];
    let s = &mut spans;
    // The evaluator's clock starts after the ack: what precedes it is
    // connect, request/ack, the server's queue and its cache/bank lookup.
    let evaluator_ns = evaluator.elapsed.as_nanos() as u64;
    let began = end_ns.saturating_sub(evaluator_ns).max(start_ns);
    child(s, 0, "server.client.pre_session", start_ns, began - start_ns);
    let (party, _) = child(s, 0, "runtime.session.evaluator", began, evaluator_ns);
    let (ot, ot_end) = child(s, party, "runtime.session.ot", began, evaluator.ot_ns);
    // The OT phase ends with the wait for the garbler's first flush.
    let wait = evaluator.ot_io_stall_ns.min(ot_end - began);
    child(s, ot, "runtime.session.ot_wait", ot_end - wait, wait);
    let (stream, stream_end) =
        child(s, party, "runtime.session.stream", ot_end, evaluator.stream_ns);
    let (_, eval_end) = child(s, stream, "gc.stream.eval", ot_end, evaluator.compute_ns);
    child(s, stream, "runtime.session.recv", eval_end, evaluator.io_ns);
    child(s, party, "runtime.session.tail", stream_end, end_ns - stream_end);
    spans
}

/// The server half, appended once the matching outcome is known. The
/// server's clock starts when it accepts the connection, which the
/// client cannot see; the span is anchored at the client's connect.
pub fn server_spans(spans: &mut SessionSpans, outcome: &SessionOutcome) {
    let Ok(garbler) = &outcome.result else { return };
    let root = spans[0];
    let wall_ns = outcome.elapsed.as_nanos() as u64;
    let id = spans.len() as u32;
    // Caused by the client's session, but not bounded by it: the
    // garbler finishes a moment after the evaluator has its outputs.
    spans.push(Span {
        session: root.session,
        id,
        parent: Some(root.id),
        name: "server.session",
        start_ns: root.start_ns,
        end_ns: root.start_ns + wall_ns,
    });
    let garbler_ns = garbler.elapsed.as_nanos() as u64;
    let pre_ns = wall_ns.saturating_sub(garbler_ns);
    let (_, pre_end) = child(spans, id, "server.session.pre", root.start_ns, pre_ns);
    let (party, _) = child(spans, id, "runtime.session.garbler", pre_end, garbler_ns);
    let (_, ot_end) = child(spans, party, "runtime.session.garbler_ot", pre_end, garbler.ot_ns);
    let (stream, _) =
        child(spans, party, "runtime.session.garbler_stream", ot_end, garbler.stream_ns);
    let (_, garble_end) = child(spans, stream, "gc.stream.garble", ot_end, garbler.compute_ns);
    child(spans, stream, "runtime.session.send", garble_end, garbler.io_ns);
}

/// Total and self time of every span name. A span's self time is its
/// duration minus the part of it its children cover.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(sessions: &[SessionSpans]) -> BTreeMap<&'static str, NameTotals> {
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for session in sessions {
        for span in session {
            let mut covered: Vec<(u64, u64)> = session
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(start, end)| start < end)
                .collect();
            covered.sort_unstable();
            let mut children_ns = 0;
            let mut reached = span.start_ns;
            for (start, end) in covered {
                children_ns += end.saturating_sub(start.max(reached));
                reached = reached.max(end);
            }
            let entry = by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(children_ns);
        }
    }
    by_name
}

/// Writes every span, and the per-name totals, as one JSON document.
pub fn write(path: &Path, workload: &str, sessions: &[SessionSpans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"time_unit\":\"ns\",\"totals\":{{")?;
    for (i, (name, t)) in totals(sessions).iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(
            out,
            "{comma}\n\"{name}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    write!(out, "}},\"spans\":[")?;
    for (i, s) in sessions.iter().flatten().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{comma}\n{{\"session\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"start\":{},\"end\":{}}}",
            s.session, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { session: 1, id, parent, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            // Overlaps `a` and sticks out of the root: only 40..100 is new.
            span(2, Some(0), "b", 30, 120),
            span(3, Some(1), "leaf", 10, 25),
        ];
        let t = totals(&[spans]);
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 10 });
        assert_eq!(t["a"], NameTotals { count: 1, total_ns: 30, self_ns: 15 });
        assert_eq!(t["b"].self_ns, 90);
        assert_eq!(t["leaf"].self_ns, 15);
    }

    #[test]
    fn children_are_cut_off_at_their_parent() {
        let mut spans = vec![span(0, None, "root", 100, 200)];
        assert_eq!(child(&mut spans, 0, "in", 120, 30), (1, 150));
        assert_eq!(child(&mut spans, 0, "over", 150, 500), (2, 200));
        assert_eq!(child(&mut spans, 0, "past", 900, 10), (3, 200));
        assert_eq!(spans[2], span(2, Some(0), "over", 150, 200));
        assert_eq!(spans[3], span(3, Some(0), "past", 200, 200));
    }
}
