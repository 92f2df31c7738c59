package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition S = V·diag(values)·Vᵀ of a symmetric
// matrix, with eigenvalues sorted in decreasing order and eigenvectors as the
// columns of Vectors.
type Eigen struct {
	// Values are the eigenvalues in decreasing order.
	Values []float64
	// Vectors is the n×n column-orthonormal matrix whose j-th column is the
	// eigenvector for Values[j].
	Vectors *Matrix
}

// ErrNotSymmetric is returned by SymEigen when the input matrix is not
// symmetric within a small tolerance.
var ErrNotSymmetric = errors.New("linalg: matrix is not symmetric")

// ErrNoConvergence is returned when the QL iteration needs more than
// qlMaxIter implicit shifts to split off one eigenvalue (which, for real
// symmetric input, should not occur).
var ErrNoConvergence = errors.New("linalg: eigensolver did not converge")

const (
	qlMaxIter    = 30
	symTolFactor = 1e-9
	machEps      = 0x1p-52
)

// SymEigen computes the eigendecomposition of the symmetric matrix s by
// Householder reduction to tridiagonal form followed by the implicit-shift
// QL iteration (the EISPACK tred2/tql2 pair). The input is not modified.
//
// Both stages are O(n³) with small constants. The eigenvectors are kept
// transposed — one per row of a single n×n work array — so every O(n³)
// inner loop (the reduction's symmetric matvec and rank-2 update, the
// reflector accumulation, the QL rotations) runs over contiguous memory.
// The columns come out orthonormal to ~1e-13 at n in the hundreds.
//
// Eigenvalues within the solver's backward error, |λ| ≤ n·ε·max|λ|, are
// returned as exactly zero: they are roundoff, and a roundoff λ ≈ ε·λmax
// would otherwise become a singular value √ε·σmax that clears every
// σ-domain rank cutoff.
func SymEigen(s *Matrix) (*Eigen, error) {
	n := s.rows
	if n != s.cols {
		return nil, fmt.Errorf("linalg: SymEigen needs a square matrix, got %d×%d", s.rows, s.cols)
	}
	if err := s.CheckFinite(); err != nil {
		return nil, err
	}
	tol := symTolFactor * s.MaxAbs()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := math.Abs(s.At(i, j) - s.At(j, i)); d > tol {
				return nil, fmt.Errorf("%w: |a[%d][%d]-a[%d][%d]| = %g", ErrNotSymmetric, i, j, j, i, d)
			}
		}
	}
	if n == 0 {
		return &Eigen{Values: nil, Vectors: NewMatrix(0, 0)}, nil
	}

	// w is the work array: tred2 reduces it in place and leaves Qᵀ there,
	// which tql2 turns into Vᵀ. s is symmetric, so its rows start it off.
	w := make([]float64, n*n)
	copy(w, s.data)
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(w, n, d, e)
	if err := tql2(w, n, d, e); err != nil {
		return nil, err
	}

	var maxAbs float64
	for _, v := range d {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	zeroTol := float64(n) * machEps * maxAbs
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })
	eig := &Eigen{Values: make([]float64, n), Vectors: NewMatrix(n, n)}
	for j, src := range order {
		if v := d[src]; math.Abs(v) > zeroTol {
			eig.Values[j] = v
		}
		for i, x := range w[src*n : (src+1)*n] {
			eig.Vectors.data[i*n+j] = x
		}
	}
	return eig, nil
}

// tred2 reduces the symmetric n×n matrix in w to tridiagonal form by
// Householder similarity transforms, leaving the diagonal in d, the
// subdiagonal in e[1:], and the accumulated orthogonal transform Q
// transposed in w (row j of w is column j of Q).
//
// It is the EISPACK/JAMA tred2 with every index pair swapped: the active
// submatrix lives in the upper triangle and each reflector in the row of
// the lower triangle it annihilates, so the inner loops walk rows.
func tred2(w []float64, n int, d, e []float64) {
	for j := 0; j < n; j++ {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// d[0:i] holds column i of the active upper triangle.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}
		// p = A·u over the upper triangle (row j holds A[j][j:i]); the
		// reflector u is stored in row i.
		ui := w[i*n : i*n+i]
		for j := 0; j < i; j++ {
			f = d[j]
			ui[j] = f
			row := w[j*n+j : j*n+i]
			g = e[j] + row[0]*f
			dk, ek := d[j+1:i], e[j+1:i]
			for k, a := range row[1:] {
				g += a * dk[k]
				ek[k] += a * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		// Rank-2 update A -= u·qᵀ + q·uᵀ, row by row.
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			row := w[j*n+j : j*n+i]
			dk, ek := d[j:i], e[j:i]
			for k := range row {
				row[k] -= f*ek[k] + g*dk[k]
			}
			d[j] = w[j*n+i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}

	// Accumulate Qᵀ = H₁···H_{n−1}. Reflector r (row r, columns 0..r−1,
	// scale hs[r]) updates the first r columns of rows 0..r−1, after which
	// row r is free to become e_r; the strict upper triangle is already 0.
	hs := make([]float64, n)
	copy(hs, d)
	for j := range d {
		d[j] = w[j*n+j]
	}
	w[0] = 1
	for r := 1; r < n; r++ {
		u := w[r*n : r*n+r]
		if h := hs[r]; h != 0 {
			for j := 0; j < r; j++ {
				x := w[j*n : j*n+r]
				Axpy(-Dot(u, x)/h, u, x)
			}
		}
		clear(u)
		w[r*n+r] = 1
	}
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e[1:]) by the
// implicit-shift QL iteration, applying every rotation to the rows of w
// (Qᵀ from tred2) so that on return row j of w is the eigenvector for d[j].
// Eigenvalues are left unsorted.
func tql2(w []float64, n int, d, e []float64) error {
	copy(e, e[1:])
	e[n-1] = 0
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		for iter := 0; ; iter++ {
			// Split at the first negligible subdiagonal element; once it
			// is e[l] itself, d[l] (+f) is an eigenvalue.
			m := l
			for m < n-1 && math.Abs(e[m]) > machEps*tst1 {
				m++
			}
			if m == l {
				break
			}
			if iter == qlMaxIter {
				return fmt.Errorf("%w: eigenvalue %d after %d QL iterations", ErrNoConvergence, l, iter)
			}
			// Implicit Wilkinson-style shift from the leading 2×2 block.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var sn, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, sn
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = sn * r
				sn = e[i] / r
				c = p / r
				p = c*d[i] - sn*g
				d[i+1] = h + sn*(c*g+sn*d[i])
				rotateRows(w[i*n:(i+1)*n], w[(i+1)*n:(i+2)*n], c, sn)
			}
			p = -sn * s2 * c3 * el1 * e[l] / dl1
			e[l] = sn * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// rotateRows applies the plane rotation (xᵢ, yᵢ) ← (c·xᵢ − s·yᵢ, s·xᵢ + c·yᵢ)
// to two eigenvector rows: the QL iteration's hot loop.
func rotateRows(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		y[k] = s*xk + c*yk
		x[k] = c*xk - s*yk
	}
}

// OrthonormalityError returns max |VᵀV − I| over all entries, a measure of
// how far the columns of v are from being orthonormal.
func OrthonormalityError(v *Matrix) float64 {
	g := Mul(v.T(), v)
	n := g.rows
	var mx float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if d := math.Abs(g.At(i, j) - want); d > mx {
				mx = d
			}
		}
	}
	return mx
}
