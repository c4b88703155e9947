//! Eight-lane f64 vector for the SoA kernel hot loops.
//!
//! LLVM's autovectorizer caps AVX-512 codegen at 256 bits on server
//! CPUs (the `prefer-256-bit` tuning default), which halves the
//! throughput of the `[f64; 8]` lane kernels. [`F64x8`] routes the
//! same elementwise operations through explicit 512-bit intrinsics
//! when `avx512f` is enabled at compile time ([`avx512`]), and through
//! plain per-lane arrays everywhere else ([`portable`], which the
//! compiler vectorizes to whatever width the target has — NEON on the
//! paper's Arm nodes). Test builds compile both, so the backend this
//! host does not select is still checked against the scalar operations.
//!
//! **Bit-identity contract.** Every operation is a per-lane IEEE-754
//! scalar operation: `+`, `-`, `*`, `/`, unary `-`, `sqrt`, `abs` and
//! mask/select all map to the exact semantics of the corresponding
//! `f64` op, and none of them is ever contracted (no FMA) or
//! reassociated. An expression written with these operators therefore
//! evaluates each lane with the same operation tree as the scalar
//! source it mirrors, producing bit-identical results — pinned by the
//! lane-kernel property tests against the scalar kernels.

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub use avx512::{F64x8, Mask8};
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub use portable::{F64x8, Mask8};

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use core::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// Eight `f64` lanes operated on elementwise.
    #[derive(Clone, Copy, Debug)]
    pub struct F64x8(__m512d);

    /// Per-lane comparison result, used to select between two vectors.
    #[derive(Clone, Copy, Debug)]
    pub struct Mask8(__mmask8);

    // SAFETY (every `unsafe` below): avx512f is statically enabled in
    // this cfg, and loads/stores go through `[f64; 8]` references.
    impl F64x8 {
        #[inline(always)]
        pub fn load(a: &[f64; 8]) -> F64x8 {
            F64x8(unsafe { _mm512_loadu_pd(a.as_ptr()) })
        }
        #[inline(always)]
        pub fn store(self, a: &mut [f64; 8]) {
            unsafe { _mm512_storeu_pd(a.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        pub fn splat(v: f64) -> F64x8 {
            F64x8(unsafe { _mm512_set1_pd(v) })
        }
        #[inline(always)]
        pub fn zero() -> F64x8 {
            F64x8(unsafe { _mm512_setzero_pd() })
        }
        #[inline(always)]
        pub fn sqrt(self) -> F64x8 {
            F64x8(unsafe { _mm512_sqrt_pd(self.0) })
        }
        /// Per-lane `f64::abs` (sign-bit clear, like the scalar op).
        #[inline(always)]
        pub fn abs(self) -> F64x8 {
            F64x8(unsafe { _mm512_abs_pd(self.0) })
        }
        /// Per-lane `self > rhs` (ordered, quiet — Rust's `>`).
        #[inline(always)]
        pub fn gt(self, rhs: F64x8) -> Mask8 {
            Mask8(unsafe { _mm512_cmp_pd_mask::<_CMP_GT_OQ>(self.0, rhs.0) })
        }
        /// Per-lane `self < rhs` (ordered, quiet — Rust's `<`).
        #[inline(always)]
        pub fn lt(self, rhs: F64x8) -> Mask8 {
            Mask8(unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, rhs.0) })
        }
        #[inline(always)]
        pub fn to_array(self) -> [f64; 8] {
            let mut out = [0.0; 8];
            self.store(&mut out);
            out
        }
        /// Every lane three times in a row, over three vectors: lane
        /// `l` of vector `j` is lane `(8 j + l) / 3` of `self` — one
        /// value per node spread over that node's three interleaved
        /// components.
        #[inline(always)]
        pub fn triple(self) -> [F64x8; 3] {
            unsafe {
                [
                    _mm512_setr_epi64(0, 0, 0, 1, 1, 1, 2, 2),
                    _mm512_setr_epi64(2, 3, 3, 3, 4, 4, 4, 5),
                    _mm512_setr_epi64(5, 5, 6, 6, 6, 7, 7, 7),
                ]
                .map(|lanes| F64x8(_mm512_permutexvar_pd(lanes, self.0)))
            }
        }
    }

    impl Mask8 {
        /// Every lane set.
        #[inline(always)]
        pub fn full() -> Mask8 {
            Mask8(0xff)
        }
        /// Lane-wise `if mask { t } else { f }`.
        #[inline(always)]
        pub fn select(self, t: F64x8, f: F64x8) -> F64x8 {
            F64x8(unsafe { _mm512_mask_blend_pd(self.0, f.0, t.0) })
        }
        /// Lane-wise `self && !rhs`.
        #[inline(always)]
        pub fn and_not(self, rhs: Mask8) -> Mask8 {
            Mask8(self.0 & !rhs.0)
        }
        #[inline(always)]
        pub fn any(self) -> bool {
            self.0 != 0
        }
    }

    macro_rules! op {
        ($trait:ident, $fn:ident, $intr:ident) => {
            impl $trait for F64x8 {
                type Output = F64x8;
                #[inline(always)]
                fn $fn(self, rhs: F64x8) -> F64x8 {
                    F64x8(unsafe { $intr(self.0, rhs.0) })
                }
            }
        };
    }
    op!(Add, add, _mm512_add_pd);
    op!(Sub, sub, _mm512_sub_pd);
    op!(Mul, mul, _mm512_mul_pd);
    op!(Div, div, _mm512_div_pd);

    /// Per-lane sign-bit flip, like the scalar unary minus: `-(0.0)` is
    /// `-0.0`, which `0.0 - x` would not give.
    impl Neg for F64x8 {
        type Output = F64x8;
        #[inline(always)]
        fn neg(self) -> F64x8 {
            F64x8(unsafe {
                _mm512_castsi512_pd(_mm512_xor_si512(
                    _mm512_castpd_si512(self.0),
                    _mm512_set1_epi64(i64::MIN),
                ))
            })
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx512f"))))]
mod portable {
    use std::array::from_fn;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// Eight `f64` lanes operated on elementwise.
    #[derive(Clone, Copy, Debug)]
    pub struct F64x8([f64; 8]);

    /// Per-lane comparison result, used to select between two vectors.
    #[derive(Clone, Copy, Debug)]
    pub struct Mask8([bool; 8]);

    impl F64x8 {
        #[inline(always)]
        pub fn load(a: &[f64; 8]) -> F64x8 {
            F64x8(*a)
        }
        #[inline(always)]
        pub fn store(self, a: &mut [f64; 8]) {
            *a = self.0;
        }
        #[inline(always)]
        pub fn splat(v: f64) -> F64x8 {
            F64x8([v; 8])
        }
        #[inline(always)]
        pub fn zero() -> F64x8 {
            F64x8([0.0; 8])
        }
        #[inline(always)]
        pub fn sqrt(self) -> F64x8 {
            F64x8(from_fn(|l| self.0[l].sqrt()))
        }
        /// Per-lane `f64::abs` (sign-bit clear, like the scalar op).
        #[inline(always)]
        pub fn abs(self) -> F64x8 {
            F64x8(from_fn(|l| self.0[l].abs()))
        }
        /// Per-lane `self > rhs` (ordered, quiet — Rust's `>`).
        #[inline(always)]
        pub fn gt(self, rhs: F64x8) -> Mask8 {
            Mask8(from_fn(|l| self.0[l] > rhs.0[l]))
        }
        /// Per-lane `self < rhs` (ordered, quiet — Rust's `<`).
        #[inline(always)]
        pub fn lt(self, rhs: F64x8) -> Mask8 {
            Mask8(from_fn(|l| self.0[l] < rhs.0[l]))
        }
        #[inline(always)]
        pub fn to_array(self) -> [f64; 8] {
            self.0
        }
        /// Every lane three times in a row, over three vectors: lane
        /// `l` of vector `j` is lane `(8 j + l) / 3` of `self` — one
        /// value per node spread over that node's three interleaved
        /// components.
        #[inline(always)]
        pub fn triple(self) -> [F64x8; 3] {
            from_fn(|j| F64x8(from_fn(|l| self.0[(8 * j + l) / 3])))
        }
    }

    impl Mask8 {
        /// Every lane set.
        #[inline(always)]
        pub fn full() -> Mask8 {
            Mask8([true; 8])
        }
        /// Lane-wise `if mask { t } else { f }`.
        #[inline(always)]
        pub fn select(self, t: F64x8, f: F64x8) -> F64x8 {
            F64x8(from_fn(|l| if self.0[l] { t.0[l] } else { f.0[l] }))
        }
        /// Lane-wise `self && !rhs`.
        #[inline(always)]
        pub fn and_not(self, rhs: Mask8) -> Mask8 {
            Mask8(from_fn(|l| self.0[l] && !rhs.0[l]))
        }
        #[inline(always)]
        pub fn any(self) -> bool {
            self.0.iter().any(|&b| b)
        }
    }

    macro_rules! op {
        ($trait:ident, $fn:ident, $op:tt) => {
            impl $trait for F64x8 {
                type Output = F64x8;
                #[inline(always)]
                fn $fn(self, rhs: F64x8) -> F64x8 {
                    F64x8(from_fn(|l| self.0[l] $op rhs.0[l]))
                }
            }
        };
    }
    op!(Add, add, +);
    op!(Sub, sub, -);
    op!(Mul, mul, *);
    op!(Div, div, /);

    /// Per-lane sign-bit flip, like the scalar unary minus: `-(0.0)` is
    /// `-0.0`, which `0.0 - x` would not give.
    impl Neg for F64x8 {
        type Output = F64x8;
        #[inline(always)]
        fn neg(self) -> F64x8 {
            F64x8(from_fn(|l| -self.0[l]))
        }
    }
}

#[cfg(test)]
mod tests {
    use cfpd_testkit::rng::Rng;

    /// Values that separate a per-lane IEEE op from a look-alike: signed
    /// zeros (`-x` against `0 - x`), NaN and infinities (ordered
    /// compares, `select` on untaken lanes), plus ordinary magnitudes.
    fn lane_value(rng: &mut Rng) -> f64 {
        match rng.range_usize(0, 10) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            _ => rng.range_f64(-1e3, 1e3),
        }
    }

    /// Every operation of one backend against the scalar `f64` op, lane
    /// by lane, on the bits.
    macro_rules! backend_matches_scalar {
        ($test:ident, $backend:ident) => {
            #[test]
            fn $test() {
                use super::$backend::{F64x8, Mask8};
                let bits = |v: F64x8| v.to_array().map(f64::to_bits);
                let mut rng = Rng::new(0xf64_8);
                for _ in 0..400 {
                    let a: [f64; 8] = std::array::from_fn(|_| lane_value(&mut rng));
                    let b: [f64; 8] = std::array::from_fn(|_| lane_value(&mut rng));
                    let (va, vb) = (F64x8::load(&a), F64x8::load(&b));
                    let scalar = |f: fn(f64, f64) -> f64| -> [u64; 8] {
                        std::array::from_fn(|l| f(a[l], b[l]).to_bits())
                    };
                    assert_eq!(bits(va + vb), scalar(|x, y| x + y), "add {a:?} {b:?}");
                    assert_eq!(bits(va - vb), scalar(|x, y| x - y), "sub {a:?} {b:?}");
                    assert_eq!(bits(va * vb), scalar(|x, y| x * y), "mul {a:?} {b:?}");
                    assert_eq!(bits(va / vb), scalar(|x, y| x / y), "div {a:?} {b:?}");
                    assert_eq!(bits(-va), scalar(|x, _| -x), "neg {a:?}");
                    assert_eq!(bits(va.abs()), scalar(|x, _| x.abs()), "abs {a:?}");
                    assert_eq!(bits(va.abs().sqrt()), scalar(|x, _| x.abs().sqrt()), "sqrt {a:?}");
                    let mut stored = [0.0; 8];
                    va.store(&mut stored);
                    assert_eq!(stored.map(f64::to_bits), a.map(f64::to_bits), "load/store");
                    assert_eq!(bits(F64x8::splat(a[0])), [a[0].to_bits(); 8], "splat");
                    assert_eq!(bits(F64x8::zero()), [0; 8], "zero");
                    let tripled: Vec<u64> = va.triple().into_iter().flat_map(bits).collect();
                    let want: Vec<u64> = (0..24).map(|k| a[k / 3].to_bits()).collect();
                    assert_eq!(tripled, want, "triple {a:?}");

                    let (gt, lt) = (va.gt(vb), va.lt(vb));
                    let pick = |m: Mask8| bits(m.select(va, vb));
                    assert_eq!(pick(gt), scalar(|x, y| if x > y { x } else { y }), "gt {a:?} {b:?}");
                    assert_eq!(pick(lt), scalar(|x, y| if x < y { x } else { y }), "lt {a:?} {b:?}");
                    assert_eq!(
                        pick(gt.and_not(va.gt(F64x8::zero()))),
                        scalar(|x, y| if x > y && !(x > 0.0) { x } else { y }),
                        "and_not {a:?} {b:?}"
                    );
                    assert_eq!(pick(Mask8::full()), a.map(f64::to_bits), "full");
                    assert_eq!(pick(Mask8::full().and_not(Mask8::full())), b.map(f64::to_bits));
                    assert_eq!(gt.any(), (0..8).any(|l| a[l] > b[l]), "any {a:?} {b:?}");
                    assert!(Mask8::full().any() && !gt.and_not(gt).any());
                }
            }
        };
    }

    backend_matches_scalar!(portable_ops_match_scalar_bits, portable);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    backend_matches_scalar!(avx512_ops_match_scalar_bits, avx512);
}
