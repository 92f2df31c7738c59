package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// toyMatrix is Table 1 of the paper: 7 customers × 5 days with two blocks
// (weekday business callers and weekend residential callers).
func toyMatrix() *Matrix {
	return FromRows([][]float64{
		{1, 1, 1, 0, 0},
		{2, 2, 2, 0, 0},
		{1, 1, 1, 0, 0},
		{5, 5, 5, 0, 0},
		{0, 0, 0, 2, 2},
		{0, 0, 0, 3, 3},
		{0, 0, 0, 1, 1},
	})
}

func TestSVDToyMatrixMatchesPaper(t *testing.T) {
	// Eq. 5: singular values 9.64 and 5.29, rank 2.
	s, err := ComputeSVD(toyMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", s.Rank())
	}
	if !almostEqual(s.Sigma[0], 9.6437, 1e-3) {
		t.Errorf("σ1 = %v, want ≈9.64", s.Sigma[0])
	}
	if !almostEqual(s.Sigma[1], 5.2915, 1e-3) {
		t.Errorf("σ2 = %v, want ≈5.29", s.Sigma[1])
	}
	// First right singular vector: (0.58, 0.58, 0.58, 0, 0) up to sign.
	v1 := s.V.Col(0)
	for j := 0; j < 3; j++ {
		if !almostEqual(math.Abs(v1[j]), 0.5774, 1e-3) {
			t.Errorf("|v1[%d]| = %v, want ≈0.577", j, math.Abs(v1[j]))
		}
	}
	for j := 3; j < 5; j++ {
		if !almostEqual(v1[j], 0, 1e-9) {
			t.Errorf("v1[%d] = %v, want 0", j, v1[j])
		}
	}
	// Second: (0, 0, 0, 0.71, 0.71) up to sign.
	v2 := s.V.Col(1)
	for j := 3; j < 5; j++ {
		if !almostEqual(math.Abs(v2[j]), 1/math.Sqrt2, 1e-3) {
			t.Errorf("|v2[%d]| = %v, want ≈0.707", j, math.Abs(v2[j]))
		}
	}
	// U column 1 from Eq. 5: (0.18, 0.36, 0.18, 0.90, 0, 0, 0) up to sign.
	wantU := []float64{0.1796, 0.3592, 0.1796, 0.8980, 0, 0, 0}
	for i, w := range wantU {
		if !almostEqual(math.Abs(s.U.At(i, 0)), w, 1e-3) {
			t.Errorf("|U[%d][0]| = %v, want ≈%v", i, math.Abs(s.U.At(i, 0)), w)
		}
	}
}

func TestSVDExactReconstructionAtFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMatrix(rng, 12, 7)
	s, err := ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s.Reconstruct(), x, 1e-8) {
		t.Error("full-rank SVD reconstruction not exact")
	}
}

func TestSVDColumnOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMatrix(rng, 30, 9)
	s, err := ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	if e := OrthonormalityError(s.V); e > 1e-9 {
		t.Errorf("VᵀV−I = %g", e)
	}
	if e := OrthonormalityError(s.U); e > 1e-8 {
		t.Errorf("UᵀU−I = %g", e)
	}
}

func TestSVDSigmaDescendingAndPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMatrix(rng, 20, 8)
	s, err := ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Sigma); i++ {
		if s.Sigma[i] > s.Sigma[i-1] {
			t.Fatalf("σ not descending: %v", s.Sigma)
		}
	}
	for _, v := range s.Sigma {
		if v <= 0 {
			t.Fatalf("retained σ must be positive, got %v", v)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	u := []float64{1, 2, 3, 4}
	v := []float64{5, 6, 7}
	x := NewMatrix(4, 3)
	for i := range u {
		for j := range v {
			x.Set(i, j, u[i]*v[j])
		}
	}
	s, err := ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", s.Rank())
	}
	if !Equal(s.Reconstruct(), x, 1e-9) {
		t.Error("rank-1 reconstruction not exact")
	}
}

// ComputeSVD Grams the column side even on wide matrices, where C = XᵀX
// has cols − rows exactly-zero eigenvalues. Roundoff in those must not
// surface as singular values: the rank is at most min(rows, cols), and
// exact for low-rank outer products.
func TestSVDRankOnWideMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct{ rows, cols, rank int }{
		{5, 40, 5}, {10, 120, 10}, {30, 366, 30}, {40, 5, 5}, {366, 30, 30},
		{5, 40, 1}, {10, 120, 1}, {30, 366, 1},
		{5, 40, 3}, {10, 120, 3}, {30, 366, 3}, {366, 30, 3},
	}
	for _, c := range cases {
		x := randMatrix(rng, c.rows, c.cols)
		if c.rank < min(c.rows, c.cols) {
			x = Mul(randMatrix(rng, c.rows, c.rank), randMatrix(rng, c.rank, c.cols))
		}
		s, err := ComputeSVD(x)
		if err != nil {
			t.Fatalf("%d×%d rank %d: %v", c.rows, c.cols, c.rank, err)
		}
		if s.Rank() != c.rank {
			t.Errorf("%d×%d rank-%d input: Rank() = %d", c.rows, c.cols, c.rank, s.Rank())
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	s, err := ComputeSVD(NewMatrix(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 0 {
		t.Fatalf("zero matrix rank = %d, want 0", s.Rank())
	}
	if got := s.ReconstructCell(2, 1); got != 0 {
		t.Errorf("ReconstructCell on rank-0 = %v, want 0", got)
	}
}

func TestSVDEmptyMatrix(t *testing.T) {
	s, err := ComputeSVD(NewMatrix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank() != 0 {
		t.Error("empty matrix should have rank 0")
	}
}

func TestSVDRejectsNaN(t *testing.T) {
	x := FromRows([][]float64{{1, math.NaN()}})
	if _, err := ComputeSVD(x); err == nil {
		t.Error("NaN input accepted")
	}
}

func TestTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randMatrix(rng, 10, 6)
	s, err := ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Truncate(2)
	if tr.Rank() != 2 {
		t.Fatalf("truncated rank = %d, want 2", tr.Rank())
	}
	if tr.U.Cols() != 2 || tr.V.Cols() != 2 {
		t.Error("truncated U/V have wrong width")
	}
	// Clamping behaviour.
	if s.Truncate(100).Rank() != s.Rank() {
		t.Error("Truncate should clamp k to rank")
	}
	if s.Truncate(-1).Rank() != 0 {
		t.Error("Truncate should clamp negative k to 0")
	}
	// Truncation must not mutate the original.
	if s.Rank() != 6 {
		t.Errorf("original rank changed to %d", s.Rank())
	}
}

func TestReconstructCellMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randMatrix(rng, 9, 5)
	s, err := ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Truncate(3)
	full := tr.Reconstruct()
	for i := 0; i < 9; i++ {
		for j := 0; j < 5; j++ {
			if !almostEqual(tr.ReconstructCell(i, j), full.At(i, j), 1e-12) {
				t.Fatalf("cell (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestReconstructRowReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, 4, 6)
	s, _ := ComputeSVD(x)
	buf := make([]float64, 6)
	out := s.ReconstructRow(2, buf)
	if &out[0] != &buf[0] {
		t.Error("ReconstructRow should reuse a sufficiently large buffer")
	}
	out2 := s.ReconstructRow(2, nil)
	for j := range out2 {
		if !almostEqual(out[j], out2[j], 0) {
			t.Fatal("buffered and fresh reconstructions differ")
		}
	}
}

// Property (Eckart–Young sanity): truncation error never increases with k.
func TestSVDTruncationErrorMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randMatrix(r, 4+r.Intn(10), 2+r.Intn(6))
		s, err := ComputeSVD(x)
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for k := 0; k <= s.Rank(); k++ {
			err := Sub(x, s.Truncate(k).Reconstruct()).FrobeniusNorm()
			if err > prev+1e-9 {
				return false
			}
			prev = err
		}
		// At full rank the error must vanish.
		return prev < 1e-7*math.Max(x.FrobeniusNorm(), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property (Lemma 3.2): σᵢ² are the eigenvalues of C = XᵀX.
func TestSVDSigmaSquaredAreEigenvalues(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randMatrix(r, 3+r.Intn(12), 2+r.Intn(6))
		s, err := ComputeSVD(x)
		if err != nil {
			return false
		}
		c := Mul(x.T(), x)
		eig, err := SymEigen(c)
		if err != nil {
			return false
		}
		for i, sg := range s.Sigma {
			if !almostEqual(sg*sg, eig.Values[i], 1e-6*math.Max(eig.Values[0], 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Frobenius norm identity ‖X‖F² = Σσᵢ².
func TestSVDFrobeniusIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randMatrix(r, 3+r.Intn(10), 2+r.Intn(6))
		s, err := ComputeSVD(x)
		if err != nil {
			return false
		}
		var sum float64
		for _, sg := range s.Sigma {
			sum += sg * sg
		}
		f2 := x.FrobeniusNorm()
		return almostEqual(sum, f2*f2, 1e-6*math.Max(f2*f2, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
