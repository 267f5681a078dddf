//! Netlist cleanup: dead-gate elimination.
//!
//! Synthesis frontends routinely leave gates whose outputs never reach a
//! circuit output (e.g. discarded carry chains). Since every gate costs
//! real cryptography under GC — an AND is four AES calls to garble —
//! pruning is a meaningful pre-pass before handing netlists to the HAAC
//! compiler, and EMP performs the equivalent cleanup.

use crate::ir::{Circuit, Gate, GateOp, WireId};

/// Result of pruning: the slimmed circuit plus what was removed.
#[derive(Debug, Clone)]
pub struct PruneReport {
    /// The pruned, renumbered circuit (semantically identical on its
    /// outputs).
    pub circuit: Circuit,
    /// Gates removed.
    pub removed_gates: usize,
    /// AND gates removed (the expensive ones).
    pub removed_ands: usize,
}

/// The backward liveness sweep: `live[w]` is set iff wire `w` is a
/// circuit output or an operand of a gate whose output is live — every
/// wire some output transitively depends on. An input is live iff a
/// live gate reads it or it is itself an output. One pass over the
/// gates, last to first.
pub fn live_wires(circuit: &Circuit) -> Vec<bool> {
    let mut live = vec![false; circuit.num_wires() as usize];
    for &out in circuit.outputs() {
        live[out as usize] = true;
    }
    for gate in circuit.gates().iter().rev() {
        if live[gate.out as usize] {
            live[gate.a as usize] = true;
            if gate.op != GateOp::Inv {
                live[gate.b as usize] = true;
            }
        }
    }
    live
}

/// Removes every gate that no output transitively depends on, and
/// renumbers wires compactly. Inputs are never removed (the interface is
/// part of the contract), only gates.
pub fn prune(circuit: &Circuit) -> PruneReport {
    let num_inputs = circuit.num_inputs();
    let gates = circuit.gates();
    let live = live_wires(circuit);

    // Renumber: inputs keep their ids; surviving gates get fresh outputs
    // in the original order.
    let mut remap = vec![WireId::MAX; circuit.num_wires() as usize];
    for w in 0..num_inputs {
        remap[w as usize] = w;
    }
    let mut next = num_inputs;
    let mut kept = Vec::new();
    let mut removed_ands = 0usize;
    for gate in gates {
        if live[gate.out as usize] {
            remap[gate.out as usize] = next;
            kept.push(Gate {
                a: remap[gate.a as usize],
                b: if gate.op == GateOp::Inv {
                    remap[gate.a as usize]
                } else {
                    remap[gate.b as usize]
                },
                out: next,
                op: gate.op,
            });
            next += 1;
        } else if gate.op == GateOp::And {
            removed_ands += 1;
        }
    }
    let removed_gates = gates.len() - kept.len();
    let outputs = circuit.outputs().iter().map(|&w| remap[w as usize]).collect();
    let circuit = Circuit::new(circuit.garbler_inputs(), circuit.evaluator_inputs(), kept, outputs)
        .expect("pruned circuit is valid");
    PruneReport { circuit, removed_gates, removed_ands }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn prune_removes_dangling_work() {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        // Useful: the sum. Dead: a full multiplier whose result is dropped.
        let (sum, _) = b.add_words(&x, &y);
        let _dead = b.mul_words(&x, &y);
        let c = b.finish(sum).unwrap();
        let report = prune(&c);
        assert!(report.removed_gates > 100, "multiplier should be removed");
        assert!(report.removed_ands > 50);
        // Semantics preserved.
        for (xv, yv) in [(3u64, 5u64), (255, 1), (0, 0)] {
            let g = crate::to_bits(xv, 8);
            let e = crate::to_bits(yv, 8);
            assert_eq!(c.eval(&g, &e).unwrap(), report.circuit.eval(&g, &e).unwrap());
        }
    }

    #[test]
    fn prune_is_identity_on_lean_circuits() {
        let mut b = Builder::new();
        let x = b.input_garbler(4);
        let y = b.input_evaluator(4);
        let (sum, carry) = b.add_words(&x, &y);
        let mut out = sum;
        out.push(carry);
        let c = b.finish(out).unwrap();
        let report = prune(&c);
        assert_eq!(report.removed_gates, 0);
        assert_eq!(report.circuit.num_gates(), c.num_gates());
    }

    #[test]
    fn prune_keeps_input_interface() {
        let mut b = Builder::new();
        let x = b.input_garbler(4);
        let _y = b.input_evaluator(4); // never used
        let c = b.finish(vec![x[0]]).unwrap();
        let report = prune(&c);
        assert_eq!(report.circuit.garbler_inputs(), 4);
        assert_eq!(report.circuit.evaluator_inputs(), 4);
    }
}
