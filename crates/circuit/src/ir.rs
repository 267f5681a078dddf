//! Boolean circuit intermediate representation.
//!
//! A [`Circuit`] is a flat, topologically ordered list of [`Gate`]s over a
//! single-static-assignment wire space: wires `0..num_inputs()` are primary
//! inputs (garbler inputs first, then evaluator inputs) and every gate
//! writes one fresh wire. This mirrors the netlists the EMP toolkit emits
//! in Bristol format, which are the input to the HAAC assembler (paper §4).

use std::fmt;

/// Identifier of a wire in a circuit's SSA wire space.
///
/// Wires `0..num_inputs` are primary inputs; every other wire is written by
/// exactly one gate.
pub type WireId = u32;

/// The Boolean operation computed by a [`Gate`].
///
/// Garbled-circuit backends treat these very differently: `Xor` and `Inv`
/// are *free* under FreeXOR (no table, no AES), while `And` requires a
/// half-gate (two table rows, four AES hashes to garble).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateOp {
    /// Logical AND — garbled with the half-gate construction.
    And,
    /// Logical XOR — free under FreeXOR.
    Xor,
    /// Logical NOT — free (a label relabeling); unary, uses input `a` only.
    Inv,
}

impl fmt::Display for GateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateOp::And => f.write_str("AND"),
            GateOp::Xor => f.write_str("XOR"),
            GateOp::Inv => f.write_str("INV"),
        }
    }
}

/// One Boolean gate: `out = op(a, b)`.
///
/// For unary [`GateOp::Inv`], `b` is conventionally equal to `a` and is
/// ignored by evaluators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate {
    /// First input wire.
    pub a: WireId,
    /// Second input wire (ignored for `Inv`).
    pub b: WireId,
    /// Output wire; unique per gate (SSA).
    pub out: WireId,
    /// The Boolean operation.
    pub op: GateOp,
}

impl Gate {
    /// Creates a binary gate.
    #[inline]
    pub fn new(op: GateOp, a: WireId, b: WireId, out: WireId) -> Self {
        Gate { a, b, out, op }
    }

    /// Creates an inverter gate.
    #[inline]
    pub fn inv(a: WireId, out: WireId) -> Self {
        Gate { a, b: a, out, op: GateOp::Inv }
    }

    /// Returns `true` if this gate is an AND (i.e. costs a garbled table).
    #[inline]
    pub fn is_and(&self) -> bool {
        self.op == GateOp::And
    }
}

/// Errors produced when validating or constructing a [`Circuit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate reads a wire that has not been written yet (or is out of range).
    UseBeforeDef {
        /// Index of the offending gate in the gate list.
        gate_index: usize,
        /// The wire that was read too early.
        wire: WireId,
    },
    /// Two gates (or a gate and a primary input) write the same wire.
    MultipleAssignment {
        /// Index of the offending gate in the gate list.
        gate_index: usize,
        /// The wire written more than once.
        wire: WireId,
    },
    /// An output refers to a wire that is never written.
    UndefinedOutput {
        /// The undefined output wire.
        wire: WireId,
    },
    /// The declared wire count is inconsistent with the gate list.
    WireCountMismatch {
        /// Declared number of wires.
        declared: u32,
        /// Number of wires actually required.
        required: u32,
    },
    /// The provided input bit-vector had the wrong length.
    InputLength {
        /// Which party's input was wrong ("garbler" or "evaluator").
        party: &'static str,
        /// Expected number of bits.
        expected: usize,
        /// Provided number of bits.
        got: usize,
    },
    /// A netlist file could not be parsed.
    Parse {
        /// Line number (1-based) where parsing failed.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UseBeforeDef { gate_index, wire } => {
                write!(f, "gate {gate_index} reads wire {wire} before it is defined")
            }
            CircuitError::MultipleAssignment { gate_index, wire } => {
                write!(f, "gate {gate_index} writes wire {wire} which is already defined")
            }
            CircuitError::UndefinedOutput { wire } => {
                write!(f, "output wire {wire} is never defined")
            }
            CircuitError::WireCountMismatch { declared, required } => {
                write!(f, "declared {declared} wires but the netlist requires {required}")
            }
            CircuitError::InputLength { party, expected, got } => {
                write!(f, "{party} input has {got} bits, expected {expected}")
            }
            CircuitError::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A topologically ordered Boolean circuit in SSA form.
///
/// Wire layout:
///
/// ```text
/// [0 .. garbler_inputs)                          garbler (Alice) inputs
/// [garbler_inputs .. garbler_inputs+evaluator_inputs)  evaluator (Bob) inputs
/// [num_inputs .. num_wires)                      gate outputs
/// ```
///
/// # Examples
///
/// ```
/// use haac_circuit::{Circuit, Gate, GateOp};
///
/// // c = a AND b, with a from the garbler and b from the evaluator.
/// let circuit = Circuit::new(
///     1,
///     1,
///     vec![Gate::new(GateOp::And, 0, 1, 2)],
///     vec![2],
/// ).unwrap();
/// assert_eq!(circuit.eval(&[true], &[false]).unwrap(), vec![false]);
/// assert_eq!(circuit.eval(&[true], &[true]).unwrap(), vec![true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    garbler_inputs: u32,
    evaluator_inputs: u32,
    gates: Vec<Gate>,
    outputs: Vec<WireId>,
    num_wires: u32,
    /// AND gates in `gates` — a function of the gate list, counted in
    /// the validating pass [`Circuit::new`] makes, so the derived
    /// `PartialEq`/`Clone` keep their meaning.
    num_ands: usize,
}

impl Circuit {
    /// Builds and validates a circuit from its parts.
    ///
    /// Gates must already be in topological order (every wire is written
    /// before it is read, inputs count as written).
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] if the gate list violates SSA form,
    /// topological order, or an output is undefined.
    pub fn new(
        garbler_inputs: u32,
        evaluator_inputs: u32,
        gates: Vec<Gate>,
        outputs: Vec<WireId>,
    ) -> Result<Self, CircuitError> {
        let num_inputs = garbler_inputs + evaluator_inputs;
        let num_wires = num_inputs + gates.len() as u32;
        let mut circuit =
            Circuit { garbler_inputs, evaluator_inputs, gates, outputs, num_wires, num_ands: 0 };
        circuit.num_ands = circuit.check()?;
        Ok(circuit)
    }

    /// Validates SSA form, topological order and output definedness.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] encountered.
    pub fn validate(&self) -> Result<(), CircuitError> {
        self.check().map(|_| ())
    }

    /// The one pass over the netlist construction pays for: validates it
    /// and returns its AND count.
    fn check(&self) -> Result<usize, CircuitError> {
        let num_inputs = self.num_inputs();
        let mut defined = vec![false; self.num_wires as usize];
        for slot in defined.iter_mut().take(num_inputs as usize) {
            *slot = true;
        }
        let mut num_ands = 0usize;
        for (i, gate) in self.gates.iter().enumerate() {
            let check_use = |wire: WireId| -> Result<(), CircuitError> {
                if wire >= self.num_wires || !defined[wire as usize] {
                    Err(CircuitError::UseBeforeDef { gate_index: i, wire })
                } else {
                    Ok(())
                }
            };
            num_ands += usize::from(gate.is_and());
            check_use(gate.a)?;
            if gate.op != GateOp::Inv {
                check_use(gate.b)?;
            }
            if gate.out >= self.num_wires {
                return Err(CircuitError::WireCountMismatch {
                    declared: self.num_wires,
                    required: gate.out + 1,
                });
            }
            if defined[gate.out as usize] {
                return Err(CircuitError::MultipleAssignment { gate_index: i, wire: gate.out });
            }
            defined[gate.out as usize] = true;
        }
        for &out in &self.outputs {
            if out >= self.num_wires || !defined[out as usize] {
                return Err(CircuitError::UndefinedOutput { wire: out });
            }
        }
        Ok(num_ands)
    }

    /// Number of garbler (Alice) input bits.
    #[inline]
    pub fn garbler_inputs(&self) -> u32 {
        self.garbler_inputs
    }

    /// Number of evaluator (Bob) input bits.
    #[inline]
    pub fn evaluator_inputs(&self) -> u32 {
        self.evaluator_inputs
    }

    /// Total number of primary input bits.
    #[inline]
    pub fn num_inputs(&self) -> u32 {
        self.garbler_inputs + self.evaluator_inputs
    }

    /// Total number of wires (inputs + one per gate).
    #[inline]
    pub fn num_wires(&self) -> u32 {
        self.num_wires
    }

    /// The gates in topological order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The circuit output wires, in output bit order.
    #[inline]
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of AND gates (each costs a garbled table) — counted at
    /// construction, so sessions read it without walking the netlist.
    #[inline]
    pub fn num_and_gates(&self) -> usize {
        self.num_ands
    }

    /// Evaluates the circuit over plaintext Booleans.
    ///
    /// This is the reference semantics used to validate the garbled
    /// execution and the HAAC functional simulator.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InputLength`] if either input slice has the
    /// wrong number of bits.
    pub fn eval(
        &self,
        garbler_input: &[bool],
        evaluator_input: &[bool],
    ) -> Result<Vec<bool>, CircuitError> {
        if garbler_input.len() != self.garbler_inputs as usize {
            return Err(CircuitError::InputLength {
                party: "garbler",
                expected: self.garbler_inputs as usize,
                got: garbler_input.len(),
            });
        }
        if evaluator_input.len() != self.evaluator_inputs as usize {
            return Err(CircuitError::InputLength {
                party: "evaluator",
                expected: self.evaluator_inputs as usize,
                got: evaluator_input.len(),
            });
        }
        let mut wires = vec![false; self.num_wires as usize];
        wires[..garbler_input.len()].copy_from_slice(garbler_input);
        wires[garbler_input.len()..garbler_input.len() + evaluator_input.len()]
            .copy_from_slice(evaluator_input);
        for gate in &self.gates {
            let a = wires[gate.a as usize];
            let value = match gate.op {
                GateOp::And => a & wires[gate.b as usize],
                GateOp::Xor => a ^ wires[gate.b as usize],
                GateOp::Inv => !a,
            };
            wires[gate.out as usize] = value;
        }
        Ok(self.outputs.iter().map(|&w| wires[w as usize]).collect())
    }

    /// Computes the dependence level of every wire.
    ///
    /// Primary inputs are level 0; a gate's output level is one more than
    /// the maximum of its input levels. This is the leveled dependence
    /// graph HAAC's full-reorder pass traverses breadth-first (paper §4.2.1).
    pub fn wire_levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.num_wires as usize];
        for gate in &self.gates {
            let la = levels[gate.a as usize];
            let lb = if gate.op == GateOp::Inv { la } else { levels[gate.b as usize] };
            levels[gate.out as usize] = la.max(lb) + 1;
        }
        levels
    }

    /// Circuit depth: the number of gate levels on the critical path.
    pub fn depth(&self) -> u32 {
        self.wire_levels().into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_and() -> Circuit {
        // out0 = (a ^ b), out1 = (a & b), out2 = !a
        Circuit::new(
            1,
            1,
            vec![Gate::new(GateOp::Xor, 0, 1, 2), Gate::new(GateOp::And, 0, 1, 3), Gate::inv(0, 4)],
            vec![2, 3, 4],
        )
        .unwrap()
    }

    #[test]
    fn eval_truth_table() {
        let c = xor_and();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = c.eval(&[a], &[b]).unwrap();
            assert_eq!(out, vec![a ^ b, a & b, !a]);
        }
    }

    #[test]
    fn validate_rejects_use_before_def() {
        let err = Circuit::new(1, 1, vec![Gate::new(GateOp::And, 0, 5, 2)], vec![2]).unwrap_err();
        assert!(matches!(err, CircuitError::UseBeforeDef { wire: 5, .. }));
    }

    #[test]
    fn validate_rejects_multiple_assignment() {
        let err = Circuit::new(
            1,
            1,
            vec![Gate::new(GateOp::Xor, 0, 1, 2), Gate::new(GateOp::And, 0, 1, 2)],
            vec![2],
        )
        .unwrap_err();
        assert!(matches!(err, CircuitError::MultipleAssignment { wire: 2, .. }));
    }

    #[test]
    fn validate_rejects_undefined_output() {
        let err = Circuit::new(1, 1, vec![Gate::new(GateOp::And, 0, 1, 2)], vec![3]).unwrap_err();
        assert!(matches!(err, CircuitError::UndefinedOutput { wire: 3 }));
    }

    #[test]
    fn eval_rejects_wrong_input_length() {
        let c = xor_and();
        let err = c.eval(&[true, false], &[false]).unwrap_err();
        assert!(matches!(err, CircuitError::InputLength { party: "garbler", .. }));
        let err = c.eval(&[true], &[]).unwrap_err();
        assert!(matches!(err, CircuitError::InputLength { party: "evaluator", .. }));
    }

    #[test]
    fn levels_and_depth() {
        // depth-2 chain: w2 = a^b; w3 = w2 & a
        let c = Circuit::new(
            1,
            1,
            vec![Gate::new(GateOp::Xor, 0, 1, 2), Gate::new(GateOp::And, 2, 0, 3)],
            vec![3],
        )
        .unwrap();
        assert_eq!(c.depth(), 2);
        assert_eq!(c.wire_levels(), vec![0, 0, 1, 2]);
    }

    #[test]
    fn and_gate_count() {
        let c = xor_and();
        assert_eq!(c.num_and_gates(), 1);
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.num_wires(), 5);
    }

    fn recount(c: &Circuit) -> usize {
        c.gates().iter().filter(|g| g.is_and()).count()
    }

    #[test]
    fn stored_and_count_equals_a_recount_on_every_road_into_new() {
        use crate::{bristol, opt, Builder};

        // `Builder::finish`: a multiplier (ANDs, XORs and INVs), with a
        // dropped adder for `prune` to remove and outputs that are not
        // the last wires for `normalize_outputs` to move.
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let product = b.mul_words(&x, &y);
        let _dead = b.add_words(&x, &y);
        let built = b.finish(product).unwrap();
        assert!(recount(&built) > 50, "want a circuit with real AND work");

        let pruned = opt::prune(&built);
        assert!(pruned.removed_ands > 0, "the dropped adder had ANDs");
        let normalized = bristol::normalize_outputs(&built);
        assert!(normalized.num_gates() > built.num_gates(), "outputs were not canonical");
        let parsed = bristol::parse(&bristol::write(&built)).unwrap();
        for (road, c) in [
            ("Builder::finish", &built),
            ("opt::prune", &pruned.circuit),
            ("bristol::normalize_outputs", &normalized),
            ("bristol::parse", &parsed),
        ] {
            assert_eq!(c.num_and_gates(), recount(c), "{road}");
        }
        assert_eq!(pruned.circuit.num_and_gates(), built.num_and_gates() - pruned.removed_ands);

        // The count is a function of the gate list, so the derived
        // impls mean what they meant: a clone is equal and counts the
        // same, equal parts build equal circuits, and a circuit that
        // differs only in one gate's op differs.
        assert_eq!(built.clone(), built);
        assert_eq!(built.clone().num_and_gates(), built.num_and_gates());
        let rebuild = |gates: Vec<Gate>| {
            Circuit::new(
                built.garbler_inputs(),
                built.evaluator_inputs(),
                gates,
                built.outputs().to_vec(),
            )
            .unwrap()
        };
        assert_eq!(rebuild(built.gates().to_vec()), built);
        let mut gates = built.gates().to_vec();
        let and = gates.iter_mut().find(|g| g.is_and()).expect("an AND gate");
        and.op = GateOp::Xor;
        let swapped = rebuild(gates);
        assert_ne!(swapped, built);
        assert_eq!(swapped.num_and_gates(), built.num_and_gates() - 1);
    }

    #[test]
    fn inv_ignores_b() {
        let c = Circuit::new(1, 0, vec![Gate::inv(0, 1)], vec![1]).unwrap();
        assert_eq!(c.eval(&[false], &[]).unwrap(), vec![true]);
        assert_eq!(c.eval(&[true], &[]).unwrap(), vec![false]);
    }
}
