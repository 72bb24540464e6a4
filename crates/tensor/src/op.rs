//! Tensor-expression operator definitions.
//!
//! An operator is a [`Compute`]: a set of spatial axes (one per logical
//! output dimension), an optional set of reduction axes, and a scalar body
//! expression over its inputs. This mirrors TVM's tensor-expression (TE)
//! layer — the substrate the paper's transformation module is built on.

use crate::expr::{Env, Expr, Var};

/// One iteration axis of a computation.
#[derive(Clone, Debug)]
pub struct Axis {
    /// The index variable bound by this axis.
    pub var: Var,
    /// Number of iterations (the logical dimension size).
    pub extent: i64,
}

impl Axis {
    /// Creates an axis.
    pub fn new(var: Var, extent: i64) -> Self {
        Self { var, extent }
    }
}

/// How reduction axes combine values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceKind {
    /// No reduction (pure elementwise / gather computation).
    None,
    /// Sum of body values.
    Sum,
    /// Maximum of body values.
    Max,
}

/// Scalar binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// Scalar unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// `exp(x)`.
    Exp,
    /// `sqrt(x)`.
    Sqrt,
    /// `1 / sqrt(x)`.
    Rsqrt,
    /// `max(x, 0)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Absolute value.
    Abs,
}

impl UnaryOp {
    /// Applies the operator to a value. Inline, so that a caller that
    /// names the operator gets its arm alone.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Exp => x.exp(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Rsqrt => 1.0 / x.sqrt(),
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Gelu => {
                let c = (2.0f32 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
            UnaryOp::Abs => x.abs(),
        }
    }
}

/// Integer predicates over index expressions (used for implicit zero
/// padding and the strided gather of transposed convolutions).
#[derive(Clone, Debug)]
pub enum Cond {
    /// `a >= b`.
    Ge(Expr, Expr),
    /// `a < b`.
    Lt(Expr, Expr),
    /// `a == b`.
    Eq(Expr, Expr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// Conjunction helper.
    pub fn and(self, other: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(other))
    }

    /// Evaluates the predicate under an environment.
    pub fn eval(&self, env: &Env) -> bool {
        match self {
            Cond::Ge(a, b) => a.eval(env) >= b.eval(env),
            Cond::Lt(a, b) => a.eval(env) < b.eval(env),
            Cond::Eq(a, b) => a.eval(env) == b.eval(env),
            Cond::And(a, b) => a.eval(env) && b.eval(env),
        }
    }

    /// Substitutes index variables inside the predicate.
    pub fn subst(&self, map: &std::collections::HashMap<u32, Expr>) -> Cond {
        match self {
            Cond::Ge(a, b) => Cond::Ge(a.subst(map), b.subst(map)),
            Cond::Lt(a, b) => Cond::Lt(a.subst(map), b.subst(map)),
            Cond::Eq(a, b) => Cond::Eq(a.subst(map), b.subst(map)),
            Cond::And(a, b) => Cond::And(Box::new(a.subst(map)), Box::new(b.subst(map))),
        }
    }
}

/// A scalar expression forming an operator body.
#[derive(Clone, Debug)]
pub enum ScalarExpr {
    /// Floating-point literal.
    Imm(f32),
    /// Load from input tensor `input` (position in the op's input list) at
    /// the given *logical* indices.
    Load {
        /// Index into the operator's input list.
        input: usize,
        /// Logical index expressions, one per input dimension.
        indices: Vec<Expr>,
    },
    /// Binary operation.
    Bin(ScalarBinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Unary operation.
    Unary(UnaryOp, Box<ScalarExpr>),
    /// `if cond { then_ } else { else_ }` — evaluated without reading the
    /// untaken branch (so out-of-bounds loads in the untaken branch are
    /// fine and model implicit zero padding).
    Select {
        /// Integer predicate.
        cond: Cond,
        /// Value when the predicate holds.
        then_: Box<ScalarExpr>,
        /// Value otherwise.
        else_: Box<ScalarExpr>,
    },
}

#[allow(clippy::should_implement_trait)] // combinator names mirror ScalarBinOp
impl ScalarExpr {
    /// Loads input `input` at `indices`.
    pub fn load(input: usize, indices: Vec<Expr>) -> ScalarExpr {
        ScalarExpr::Load { input, indices }
    }

    /// `self + rhs`.
    pub fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(ScalarBinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(ScalarBinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(ScalarBinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(ScalarBinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Bin(ScalarBinOp::Max, Box::new(self), Box::new(rhs))
    }

    /// Applies a unary operator.
    pub fn unary(self, op: UnaryOp) -> ScalarExpr {
        ScalarExpr::Unary(op, Box::new(self))
    }

    /// Wraps the expression in a select.
    pub fn select(cond: Cond, then_: ScalarExpr, else_: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Select {
            cond,
            then_: Box::new(then_),
            else_: Box::new(else_),
        }
    }

    /// Substitutes index variables in all embedded index expressions.
    pub fn subst(&self, map: &std::collections::HashMap<u32, Expr>) -> ScalarExpr {
        match self {
            ScalarExpr::Imm(v) => ScalarExpr::Imm(*v),
            ScalarExpr::Load { input, indices } => ScalarExpr::Load {
                input: *input,
                indices: indices.iter().map(|e| e.subst(map)).collect(),
            },
            ScalarExpr::Bin(op, a, b) => {
                ScalarExpr::Bin(*op, Box::new(a.subst(map)), Box::new(b.subst(map)))
            }
            ScalarExpr::Unary(op, a) => ScalarExpr::Unary(*op, Box::new(a.subst(map))),
            ScalarExpr::Select { cond, then_, else_ } => ScalarExpr::Select {
                cond: cond.subst(map),
                then_: Box::new(then_.subst(map)),
                else_: Box::new(else_.subst(map)),
            },
        }
    }

    /// Counts scalar floating-point operations in one body evaluation.
    pub fn flops(&self) -> u64 {
        match self {
            ScalarExpr::Imm(_) | ScalarExpr::Load { .. } => 0,
            ScalarExpr::Bin(_, a, b) => 1 + a.flops() + b.flops(),
            ScalarExpr::Unary(_, a) => 1 + a.flops(),
            ScalarExpr::Select { then_, else_, .. } => 1 + then_.flops().max(else_.flops()),
        }
    }

    /// Visits every load in the expression.
    pub fn visit_loads(&self, f: &mut impl FnMut(usize, &[Expr])) {
        match self {
            ScalarExpr::Imm(_) => {}
            ScalarExpr::Load { input, indices } => f(*input, indices),
            ScalarExpr::Bin(_, a, b) => {
                a.visit_loads(f);
                b.visit_loads(f);
            }
            ScalarExpr::Unary(_, a) => a.visit_loads(f),
            ScalarExpr::Select { then_, else_, .. } => {
                then_.visit_loads(f);
                else_.visit_loads(f);
            }
        }
    }
}

/// A complete operator definition in tensor-expression form.
#[derive(Clone, Debug)]
pub struct Compute {
    /// Operator name (used in diagnostics and tuning logs).
    pub name: String,
    /// Spatial axes; one per logical output dimension, in order.
    pub axes: Vec<Axis>,
    /// Reduction axes (empty for elementwise operators).
    pub reduce_axes: Vec<Axis>,
    /// Reduction combinator.
    pub reduce: ReduceKind,
    /// Initial accumulator value for reductions.
    pub init: f32,
    /// Scalar body in terms of axis variables.
    pub body: ScalarExpr,
    /// Scale applied to the final (reduced) value, e.g. `1/k²` for average
    /// pooling. `1.0` means no scaling.
    pub post_scale: f32,
}

impl Compute {
    /// The logical output shape implied by the spatial axes.
    pub fn out_shape(&self) -> crate::shape::Shape {
        crate::shape::Shape::new(self.axes.iter().map(|a| a.extent).collect::<Vec<_>>())
    }

    /// Total floating-point operations for the whole output tensor.
    pub fn total_flops(&self) -> u64 {
        let spatial: i64 = self.axes.iter().map(|a| a.extent).product();
        let red: i64 = self.reduce_axes.iter().map(|a| a.extent).product();
        let per_iter = self.body.flops()
            + if self.reduce == ReduceKind::None {
                0
            } else {
                1
            };
        per_iter * spatial as u64 * red as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarGen;

    #[test]
    fn unary_ops_match_reference() {
        assert_eq!(UnaryOp::Relu.apply(-1.0), 0.0);
        assert_eq!(UnaryOp::Relu.apply(2.0), 2.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!((UnaryOp::Rsqrt.apply(4.0) - 0.5).abs() < 1e-6);
        assert!((UnaryOp::Gelu.apply(0.0)).abs() < 1e-6);
    }

    #[test]
    fn cond_eval() {
        let mut g = VarGen::new();
        let i = g.fresh("i");
        let mut env = Env::new();
        env.bind(&i, 3);
        let c = Cond::Ge(Expr::v(&i), Expr::c(0)).and(Cond::Lt(Expr::v(&i), Expr::c(4)));
        assert!(c.eval(&env));
        env.bind(&i, 4);
        let c2 = Cond::Lt(Expr::v(&i), Expr::c(4));
        assert!(!c2.eval(&env));
    }

    #[test]
    fn flops_counting() {
        // a*b + c -> 2 flops.
        let e = ScalarExpr::load(0, vec![])
            .mul(ScalarExpr::load(1, vec![]))
            .add(ScalarExpr::load(2, vec![]));
        assert_eq!(e.flops(), 2);
    }

    #[test]
    fn compute_total_flops() {
        let mut g = VarGen::new();
        let i = g.fresh("i");
        let r = g.fresh("r");
        let body = ScalarExpr::load(0, vec![Expr::v(&i), Expr::v(&r)])
            .mul(ScalarExpr::load(1, vec![Expr::v(&r)]));
        let c = Compute {
            name: "mv".into(),
            axes: vec![Axis::new(i, 4)],
            reduce_axes: vec![Axis::new(r, 8)],
            reduce: ReduceKind::Sum,
            init: 0.0,
            body,
            post_scale: 1.0,
        };
        // One mul + one accumulate per reduction iteration.
        assert_eq!(c.total_flops(), 2 * 4 * 8);
        assert_eq!(c.out_shape().dims(), &[4]);
    }
}
