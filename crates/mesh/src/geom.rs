//! Minimal 3D vector math used throughout the workspace.
//!
//! We deliberately avoid pulling in a linear-algebra crate: the mesh,
//! solver and particle crates only need a handful of `Vec3` operations,
//! and keeping them local makes the kernels easy to inline and audit.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-component double-precision vector (position, velocity, force...).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction. Panics in debug builds on the
    /// zero vector; in release returns a NaN vector (callers must ensure
    /// non-degeneracy, which the mesh generator does by construction).
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 0.0, "normalizing zero vector");
        self / n
    }

    /// Component-wise linear interpolation: `self + t * (o - self)`.
    #[cfg(test)]
    pub fn lerp(self, o: Vec3, t: f64) -> Vec3 {
        self + (o - self) * t
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, o: Vec3) -> f64 {
        (self - o).norm()
    }

    /// Any unit vector orthogonal to `self` (which must be non-zero).
    pub fn any_orthogonal(self) -> Vec3 {
        // Pick the axis least aligned with self to avoid degeneracy.
        let a = if self.x.abs() <= self.y.abs() && self.x.abs() <= self.z.abs() {
            Vec3::new(1.0, 0.0, 0.0)
        } else if self.y.abs() <= self.z.abs() {
            Vec3::new(0.0, 1.0, 0.0)
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        };
        self.cross(a).normalized()
    }

    /// Rotate `self` around unit axis `axis` by `angle` radians
    /// (Rodrigues' rotation formula).
    pub fn rotate_about(self, axis: Vec3, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        self * c + axis.cross(self) * s + axis * (axis.dot(self) * (1.0 - c))
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

/// A right-handed orthonormal frame used to sweep tube cross-sections
/// along a centerline: `t` is the tangent (extrusion direction), `u` and
/// `v` span the cross-section plane.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub t: Vec3,
    pub u: Vec3,
    pub v: Vec3,
}

impl Frame {
    /// Build a frame with tangent `t` (normalized internally) and an
    /// arbitrary but deterministic pair of cross-section axes.
    pub fn from_tangent(t: Vec3) -> Frame {
        let t = t.normalized();
        let u = t.any_orthogonal();
        let v = t.cross(u);
        Frame { t, u, v }
    }

    /// Transport this frame to a new tangent direction, rotating the
    /// cross-section axes as little as possible (avoids the twisting
    /// artifacts of re-deriving `u` from scratch at every branch).
    pub fn transport_to(&self, new_t: Vec3) -> Frame {
        let new_t = new_t.normalized();
        let axis = self.t.cross(new_t);
        let s = axis.norm();
        if s < 1e-12 {
            // Parallel (or anti-parallel; the generator never folds back).
            return Frame { t: new_t, u: self.u, v: self.v };
        }
        let axis = axis / s;
        let angle = self.t.dot(new_t).clamp(-1.0, 1.0).acos();
        let u = self.u.rotate_about(axis, angle);
        let v = new_t.cross(u);
        Frame { t: new_t, u, v }
    }

    /// Point on the cross-section circle at `center`, radius `r`, angle `a`.
    #[inline]
    pub fn circle_point(&self, center: Vec3, r: f64, a: f64) -> Vec3 {
        let (s, c) = a.sin_cos();
        center + self.u * (r * c) + self.v * (r * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn dot_cross_norm() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        approx(a.dot(b), -4.0 + 10.0 + 1.5);
        let c = a.cross(b);
        // Cross product is orthogonal to both operands.
        approx(c.dot(a), 0.0);
        approx(c.dot(b), 0.0);
        approx(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0);
    }

    #[test]
    fn normalized_is_unit() {
        let v = Vec3::new(0.3, -2.0, 7.0).normalized();
        approx(v.norm(), 1.0);
    }

    #[test]
    fn any_orthogonal_is_orthogonal_unit() {
        for v in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, -2.0, 0.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-0.1, 3.0, 0.2),
        ] {
            let o = v.any_orthogonal();
            approx(o.dot(v), 0.0);
            approx(o.norm(), 1.0);
        }
    }

    #[test]
    fn rotation_preserves_norm_and_rotates() {
        let v = Vec3::new(1.0, 0.0, 0.0);
        let r = v.rotate_about(Vec3::new(0.0, 0.0, 1.0), std::f64::consts::FRAC_PI_2);
        approx(r.x, 0.0);
        approx(r.y, 1.0);
        approx(r.norm(), 1.0);
    }

    #[test]
    fn frame_is_orthonormal_after_transport() {
        let f = Frame::from_tangent(Vec3::new(0.0, 0.0, 1.0));
        let g = f.transport_to(Vec3::new(1.0, 0.0, 1.0));
        approx(g.t.norm(), 1.0);
        approx(g.u.norm(), 1.0);
        approx(g.v.norm(), 1.0);
        approx(g.t.dot(g.u), 0.0);
        approx(g.t.dot(g.v), 0.0);
        approx(g.u.dot(g.v), 0.0);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }
}
