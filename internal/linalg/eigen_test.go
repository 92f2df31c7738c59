package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randSymmetric builds a random symmetric n×n matrix.
func randSymmetric(r *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64() * 5
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestSymEigenDiagonal(t *testing.T) {
	a := Diag([]float64{3, 1, 2})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, v := range want {
		if !almostEqual(eig.Values[i], v, 1e-12) {
			t.Errorf("Values[%d] = %v, want %v", i, eig.Values[i], v)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(eig.Values[0], 3, 1e-12) || !almostEqual(eig.Values[1], 1, 1e-12) {
		t.Errorf("Values = %v, want [3 1]", eig.Values)
	}
	// Eigenvector for 3 is (1,1)/√2 up to sign.
	v0 := eig.Vectors.Col(0)
	if !almostEqual(math.Abs(v0[0]), 1/math.Sqrt2, 1e-10) {
		t.Errorf("first eigenvector = %v", v0)
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestSymEigenRejectsAsymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	_, err := SymEigen(a)
	if !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("err = %v, want ErrNotSymmetric", err)
	}
}

func TestSymEigenRejectsNaN(t *testing.T) {
	a := FromRows([][]float64{{1, math.NaN()}, {math.NaN(), 1}})
	if _, err := SymEigen(a); !errors.Is(err, ErrNotFinite) {
		t.Errorf("err = %v, want ErrNotFinite", err)
	}
}

func TestSymEigenEmpty(t *testing.T) {
	eig, err := SymEigen(NewMatrix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(eig.Values) != 0 {
		t.Error("empty matrix should yield no eigenvalues")
	}
}

func TestSymEigenZeroMatrix(t *testing.T) {
	eig, err := SymEigen(NewMatrix(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if v != 0 {
			t.Errorf("zero matrix eigenvalue %v != 0", v)
		}
	}
	if e := OrthonormalityError(eig.Vectors); e > 1e-12 {
		t.Errorf("eigenvectors of zero matrix not orthonormal: %g", e)
	}
}

// checkDecomposition asserts the solver's accuracy contract on every pair:
// ‖S·v − λ·v‖ ≤ 1e-9·max(max|λ|, 1), VᵀV within 1e-12 of I, and the
// eigenvalues in decreasing order.
func checkDecomposition(t *testing.T, name string, s *Matrix, eig *Eigen) {
	t.Helper()
	n := s.Rows()
	if len(eig.Values) != n || eig.Vectors.Rows() != n || eig.Vectors.Cols() != n {
		t.Fatalf("%s: got %d values and %d×%d vectors for n=%d", name,
			len(eig.Values), eig.Vectors.Rows(), eig.Vectors.Cols(), n)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(eig.Values))) {
		t.Errorf("%s: eigenvalues not sorted descending", name)
	}
	scale := math.Max(math.Max(math.Abs(eig.Values[0]), math.Abs(eig.Values[n-1])), 1)
	var worst float64
	for j, lambda := range eig.Values {
		v := eig.Vectors.Col(j)
		sv := s.MulVec(v)
		for i := range sv {
			sv[i] -= lambda * v[i]
		}
		worst = math.Max(worst, Norm2(sv))
	}
	orth := OrthonormalityError(eig.Vectors)
	t.Logf("%s: max residual %.2g at max|λ| %.3g, orthonormality %.2g", name, worst, scale, orth)
	if worst > 1e-9*scale {
		t.Errorf("%s: max ‖S·v − λ·v‖ = %g, want ≤ %g", name, worst, 1e-9*scale)
	}
	if orth > 1e-12 {
		t.Errorf("%s: VᵀV deviates from I by %g", name, orth)
	}
}

func TestSymEigenRandomDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 10, 40, 50, 100, 366} {
		s := randSymmetric(rng, n)
		eig, err := SymEigen(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkDecomposition(t, fmt.Sprintf("n=%d", n), s, eig)
	}
}

// Property: the trace equals the sum of eigenvalues.
func TestSymEigenTraceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		s := randSymmetric(r, n)
		eig, err := SymEigen(s)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += s.At(i, i)
		}
		for _, v := range eig.Values {
			sum += v
		}
		return almostEqual(trace, sum, 1e-8*math.Max(math.Abs(trace), 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: for PSD matrices BᵀB all eigenvalues are ≥ 0 (up to roundoff).
func TestSymEigenPSDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		b := randMatrix(r, n, m)
		s := Mul(b.T(), b)
		eig, err := SymEigen(s)
		if err != nil {
			return false
		}
		for _, v := range eig.Values {
			if v < -1e-7*math.Max(s.MaxAbs(), 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Eigen must satisfy the defining equation S·v = λ·v for each pair.
func TestSymEigenDefiningEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randSymmetric(rng, 20)
	eig, err := SymEigen(s)
	if err != nil {
		t.Fatal(err)
	}
	for j, lambda := range eig.Values {
		v := eig.Vectors.Col(j)
		sv := s.MulVec(v)
		for i := range sv {
			if !almostEqual(sv[i], lambda*v[i], 1e-7*math.Max(s.MaxAbs(), 1)) {
				t.Fatalf("S·v != λ·v for pair %d at component %d: %g vs %g",
					j, i, sv[i], lambda*v[i])
			}
		}
	}
}

func TestSymEigenRepeatedEigenvalues(t *testing.T) {
	// Identity-like matrix with repeated eigenvalues must still produce an
	// orthonormal basis.
	s := Identity(6).Scale(4)
	eig, err := SymEigen(s)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, "4·I", s, eig)
}

// gramOf returns XᵀX for a random (rows×n) X: the PSD shape pass 1 feeds
// the solver.
func gramOf(rng *rand.Rand, rows, n int) *Matrix {
	x := randMatrix(rng, rows, n)
	return Mul(x.T(), x)
}

// rotated returns W·diag(values)·Wᵀ for a random orthogonal W.
func rotated(values []float64, seed uint64) *Matrix {
	n := len(values)
	f, err := QRFactor(GaussianSketch(n, n, seed))
	if err != nil {
		panic(err)
	}
	w := f.ThinQ()
	return Mul(Mul(w, Diag(values)), w.T())
}

func TestSymEigenAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tri := NewMatrix(40, 40)
	for i := 0; i < 40; i++ {
		tri.Set(i, i, float64(i%7)-3)
		if i > 0 {
			tri.Set(i, i-1, 1+float64(i%3))
			tri.Set(i-1, i, 1+float64(i%3))
		}
	}
	clustered := make([]float64, 30)
	for i := range clustered {
		clustered[i] = 5 + 1e-10*float64(i%4)
	}
	clustered[0] = 50
	lowRank := randMatrix(rng, 3, 40)
	cases := []struct {
		name string
		s    *Matrix
	}{
		{"gram n=366", gramOf(rng, 400, 366)},
		{"diagonal", Diag([]float64{-2, 7, 0, 3.5, -9, 1})},
		{"tridiagonal", tri},
		{"clustered", rotated(clustered, 9)},
		{"rank-deficient PSD", Mul(lowRank.T(), lowRank)},
	}
	for _, c := range cases {
		eig, err := SymEigen(c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkDecomposition(t, c.name, c.s, eig)
	}
}

// A rank-r PSD matrix must come back with exactly r nonzero eigenvalues:
// the roundoff eigenvalues inside the solver's backward error are zeroed.
func TestSymEigenRankDeficientZeroesRoundoff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, r := range []int{1, 3, 10} {
		b := randMatrix(rng, r, 60)
		eig, err := SymEigen(Mul(b.T(), b))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range eig.Values {
			if (j < r) != (v > 0) {
				t.Fatalf("rank %d: Values[%d] = %g", r, j, v)
			}
		}
	}
}

func TestOrthonormalityErrorDetects(t *testing.T) {
	bad := FromRows([][]float64{{1, 1}, {0, 1}})
	if OrthonormalityError(bad) < 0.5 {
		t.Error("OrthonormalityError failed to flag a non-orthonormal matrix")
	}
	if OrthonormalityError(Identity(4)) > 1e-15 {
		t.Error("identity should be perfectly orthonormal")
	}
}

func benchmarkSymEigen(b *testing.B, m int) {
	s := gramOf(rand.New(rand.NewSource(5)), m+34, m)
	for b.Loop() {
		if _, err := SymEigen(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigenM128(b *testing.B)  { benchmarkSymEigen(b, 128) }
func BenchmarkSymEigenM366(b *testing.B)  { benchmarkSymEigen(b, 366) }
func BenchmarkSymEigenM1000(b *testing.B) { benchmarkSymEigen(b, 1000) }
