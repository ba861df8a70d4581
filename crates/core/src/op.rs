//! Operations of the DSL (Table 1 of the paper).
//!
//! Operations are classified as *local computations* (pointwise ops,
//! MatMul, Dropout, norms) and *cross-rank communication operations*
//! (AllReduce, AllGather, ReduceScatter, Reduce, Broadcast, P2P
//! send-recv).

use std::fmt;

pub use coconet_tensor::{Conv2dParams, ReduceOp};

/// A handle to a node (an intermediate tensor, the paper's `Var`) in a
/// program's data-flow graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index of this variable in its program's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Unary pointwise operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Elementwise square root (`Sqrt` in Table 1).
    Sqrt,
    /// Elementwise hyperbolic tangent activation.
    Tanh,
    /// Elementwise rectified linear unit activation.
    Relu,
    /// Elementwise negation.
    Neg,
}

impl UnaryOp {
    /// Applies the operation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Neg => -x,
        }
    }

    /// DSL spelling.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Sqrt => "Sqrt",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Relu => "ReLU",
            UnaryOp::Neg => "Neg",
        }
    }
}

/// Binary pointwise operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise power (`Pow` in Table 1).
    Pow,
}

impl BinaryOp {
    /// Applies the operation to a pair of values.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
        }
    }

    /// Infix spelling for pretty-printing (`Pow` prints as a call).
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "Pow",
        }
    }
}

/// Destination selector for point-to-point sends.
///
/// Pipeline parallelism (§4) sends from rank `(g, i)` to rank
/// `(g+1, i)` — the paper's `GroupRank(GROUP + 1, RANK)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PeerSelector {
    /// The same group-relative rank in the next process group.
    NextGroupSameRank,
}

impl fmt::Display for PeerSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerSelector::NextGroupSameRank => write!(f, "GroupRank(GROUP+1, RANK)"),
        }
    }
}

/// An operation node in the data-flow graph.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// A declared input tensor (the leaves of the DFG).
    Input,
    /// A compile-time scalar constant (e.g. `1 - beta1`).
    ConstScalar(f64),
    /// Unary pointwise computation.
    Unary(UnaryOp, VarId),
    /// Binary pointwise computation with broadcasting.
    Binary(BinaryOp, VarId, VarId),
    /// Matrix multiplication `a @ w` (`w` must be 2-D).
    MatMul(VarId, VarId),
    /// 2-D convolution `conv2d(x, w)` with NCHW input and OIHW weights
    /// (Table 1 lists Convolution among the layers).
    Conv2d(VarId, VarId, Conv2dParams),
    /// Dropout activation with drop probability `p`.
    Dropout(VarId, f64),
    /// In-place update of a declared input tensor (Table 1's `Update`):
    /// the first operand is the target input, the second the new value.
    Update(VarId, VarId),
    /// L2 norm of the (possibly sliced) operand, yielding a replicated
    /// scalar. For sliced operands each rank reduces locally and the
    /// generated kernel embeds a scalar AllReduce (§5.2,
    /// "Tensor Reduction").
    Norm(VarId),
    /// Full reduction of the operand to a replicated scalar
    /// (Table 1's `ReduceTensor`).
    ReduceTensor(ReduceOp, VarId),
    /// Takes the executing rank's slice of a replicated tensor
    /// (introduced by the `reorder` transformation, e.g. `Slice(r)`).
    Slice(VarId),
    /// AllReduce collective: local tensors in, replicated tensor out.
    AllReduce(ReduceOp, VarId),
    /// ReduceScatter collective: local tensors in, flat-sliced out.
    ReduceScatter(ReduceOp, VarId),
    /// AllGather collective: sliced tensor in, replicated out.
    AllGather(VarId),
    /// Broadcast from a group-relative root rank.
    Broadcast(VarId, usize),
    /// Reduce to a group-relative root rank (output local to root).
    Reduce(ReduceOp, VarId, usize),
    /// P2P send to another group; the value materializes there.
    Send(VarId, PeerSelector),
}

impl OpKind {
    /// The operands this node reads.
    pub fn inputs(&self) -> Vec<VarId> {
        match self {
            OpKind::Input | OpKind::ConstScalar(_) => vec![],
            OpKind::Unary(_, a)
            | OpKind::Dropout(a, _)
            | OpKind::Norm(a)
            | OpKind::ReduceTensor(_, a)
            | OpKind::Slice(a)
            | OpKind::AllReduce(_, a)
            | OpKind::ReduceScatter(_, a)
            | OpKind::AllGather(a)
            | OpKind::Broadcast(a, _)
            | OpKind::Reduce(_, a, _)
            | OpKind::Send(a, _) => vec![*a],
            OpKind::Binary(_, a, b)
            | OpKind::MatMul(a, b)
            | OpKind::Conv2d(a, b, _)
            | OpKind::Update(a, b) => {
                vec![*a, *b]
            }
        }
    }

    /// Rewrites every operand equal to `from` into `to`.
    pub fn replace_input(&mut self, from: VarId, to: VarId) {
        let subst = |v: &mut VarId| {
            if *v == from {
                *v = to;
            }
        };
        match self {
            OpKind::Input | OpKind::ConstScalar(_) => {}
            OpKind::Unary(_, a)
            | OpKind::Dropout(a, _)
            | OpKind::Norm(a)
            | OpKind::ReduceTensor(_, a)
            | OpKind::Slice(a)
            | OpKind::AllReduce(_, a)
            | OpKind::ReduceScatter(_, a)
            | OpKind::AllGather(a)
            | OpKind::Broadcast(a, _)
            | OpKind::Reduce(_, a, _)
            | OpKind::Send(a, _) => subst(a),
            OpKind::Binary(_, a, b)
            | OpKind::MatMul(a, b)
            | OpKind::Conv2d(a, b, _)
            | OpKind::Update(a, b) => {
                subst(a);
                subst(b);
            }
        }
    }

    /// Whether this is a cross-rank communication operation.
    pub fn is_communication(&self) -> bool {
        matches!(
            self,
            OpKind::AllReduce(..)
                | OpKind::ReduceScatter(..)
                | OpKind::AllGather(..)
                | OpKind::Broadcast(..)
                | OpKind::Reduce(..)
                | OpKind::Send(..)
        )
    }

    /// Whether this is a pointwise local computation (fusable into a
    /// single kernel or into a fused collective).
    pub fn is_pointwise(&self) -> bool {
        matches!(
            self,
            OpKind::Unary(..)
                | OpKind::Binary(..)
                | OpKind::Dropout(..)
                | OpKind::Update(..)
                | OpKind::Slice(..)
                | OpKind::Norm(..)
                | OpKind::ReduceTensor(..)
                | OpKind::ConstScalar(_)
        )
    }

    /// Short mnemonic used in printouts and generated-code names.
    pub fn mnemonic(&self) -> String {
        match self {
            OpKind::Input => "Tensor".into(),
            OpKind::ConstScalar(v) => format!("Const({v})"),
            OpKind::Unary(op, _) => op.name().into(),
            OpKind::Binary(op, _, _) => op.symbol().into(),
            OpKind::MatMul(..) => "MatMul".into(),
            OpKind::Conv2d(..) => "Conv2d".into(),
            OpKind::Dropout(..) => "Dropout".into(),
            OpKind::Update(..) => "Update".into(),
            OpKind::Norm(_) => "Norm".into(),
            OpKind::ReduceTensor(op, _) => format!("ReduceTensor({op})"),
            OpKind::Slice(_) => "Slice".into(),
            OpKind::AllReduce(op, _) => format!("AllReduce({op})"),
            OpKind::ReduceScatter(op, _) => format!("ReduceScatter({op})"),
            OpKind::AllGather(_) => "AllGather".into(),
            OpKind::Broadcast(_, r) => format!("Broadcast(root={r})"),
            OpKind::Reduce(op, _, r) => format!("Reduce({op}, root={r})"),
            OpKind::Send(_, peer) => format!("Send({peer})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_apply() {
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnaryOp::Relu.apply(-2.0), 0.0);
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert!((UnaryOp::Tanh.apply(0.5) - 0.5f32.tanh()).abs() < 1e-7);
    }

    #[test]
    fn binary_apply() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinaryOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinaryOp::Pow.apply(2.0, 3.0), 8.0);
    }

    #[test]
    fn inputs_and_replace() {
        let a = VarId(1);
        let b = VarId(2);
        let mut op = OpKind::Binary(BinaryOp::Add, a, b);
        assert_eq!(op.inputs(), vec![a, b]);
        op.replace_input(a, VarId(9));
        assert_eq!(op.inputs(), vec![VarId(9), b]);
        assert_eq!(OpKind::Input.inputs(), vec![]);
    }

    #[test]
    fn classification() {
        let v = VarId(0);
        assert!(OpKind::AllReduce(ReduceOp::Sum, v).is_communication());
        assert!(!OpKind::AllReduce(ReduceOp::Sum, v).is_pointwise());
        assert!(OpKind::Dropout(v, 0.1).is_pointwise());
        assert!(!OpKind::MatMul(v, v).is_pointwise());
        assert!(!OpKind::MatMul(v, v).is_communication());
        assert!(OpKind::Send(v, PeerSelector::NextGroupSameRank).is_communication());
    }

    #[test]
    fn mnemonics() {
        let v = VarId(0);
        assert_eq!(
            OpKind::AllReduce(ReduceOp::Sum, v).mnemonic(),
            "AllReduce(+)"
        );
        assert_eq!(OpKind::MatMul(v, v).mnemonic(), "MatMul");
        assert_eq!(
            OpKind::Send(v, PeerSelector::NextGroupSameRank).mnemonic(),
            "Send(GroupRank(GROUP+1, RANK))"
        );
    }
}
