package mat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L Lᵀ.
type Cholesky struct {
	n int
	l *Matrix // lower triangular, upper part zero
}

// NewCholesky factors the symmetric positive-definite matrix a.
// It returns an error wrapping ErrSingular if a pivot is not positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		// Diagonal element.
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("mat: Cholesky pivot %d is %g: %w", j, d, ErrSingular)
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / ljj
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// LogDet returns log(det(A)) = 2*sum(log(L[i][i])).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}

// SolveVec solves A x = b for x.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("mat: Cholesky.SolveVec: len %d, want %d: %w", len(b), c.n, ErrShape)
	}
	// Forward substitution: L y = b.
	y := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		s := b[i]
		li := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	// Back substitution: Lᵀ x = y.
	x := make([]float64, c.n)
	for i := c.n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x, nil
}

// MahalanobisSq returns dᵀ A⁻¹ d computed stably through the factor:
// solve L y = d, then the result is yᵀy.
func (c *Cholesky) MahalanobisSq(d []float64) (float64, error) {
	if len(d) != c.n {
		return 0, fmt.Errorf("mat: MahalanobisSq: len %d, want %d: %w", len(d), c.n, ErrShape)
	}
	y := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		s := d[i]
		li := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	out := 0.0
	for _, v := range y {
		out += v * v
	}
	return out, nil
}

// Inverse returns A⁻¹ as a dense matrix.
func (c *Cholesky) Inverse() (*Matrix, error) {
	inv := New(c.n, c.n)
	e := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := c.SolveVec(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < c.n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}
