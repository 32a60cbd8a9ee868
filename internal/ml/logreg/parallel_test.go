package logreg

import (
	"context"
	"math"
	"testing"

	"m3/internal/exec"
	"m3/internal/infimnist"
	"m3/internal/mat"
	"m3/internal/ml/preprocess"
)

func TestParallelObjectiveMatchesSerial(t *testing.T) {
	g := infimnist.Generator{Seed: 8}
	const n = 100
	xs, labels := g.Matrix(0, n)
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	y := make([]float64, n)
	for i, v := range labels {
		if v == 0 {
			y[i] = 1
		}
	}

	serial, err := NewObjective(x, y, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, serial.Dim())
	for i := range params {
		params[i] = math.Sin(float64(i)) * 0.02
	}
	gs := make([]float64, serial.Dim())
	fs := serial.Eval(params, gs)

	for _, workers := range []int{1, 2, 4, 7} {
		par, err := NewParallelObjective(context.Background(), exec.Local(x, y, workers), preprocess.BinaryRule{}, 0.01, true)
		if err != nil {
			t.Fatal(err)
		}
		gp := make([]float64, par.Dim())
		fp := par.Eval(params, gp)
		if math.Abs(fp-fs) > 1e-12*math.Max(1, math.Abs(fs)) {
			t.Errorf("workers=%d: loss %v vs serial %v", workers, fp, fs)
		}
		for i := range gs {
			if math.Abs(gp[i]-gs[i]) > 1e-10*math.Max(1, math.Abs(gs[i])) {
				t.Errorf("workers=%d: grad[%d] %v vs %v", workers, i, gp[i], gs[i])
				break
			}
		}
		if par.Scans != 1 {
			t.Errorf("workers=%d: scans = %d", workers, par.Scans)
		}
	}
}

func TestParallelObjectiveDeterministic(t *testing.T) {
	g := infimnist.Generator{Seed: 9}
	const n = 64
	xs, labels := g.Matrix(0, n)
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	y := make([]float64, n)
	for i, v := range labels {
		if v == 1 {
			y[i] = 1
		}
	}
	par, err := NewParallelObjective(context.Background(), exec.Local(x, y, 4), preprocess.BinaryRule{}, 0.01, true)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, par.Dim())
	g1 := make([]float64, par.Dim())
	g2 := make([]float64, par.Dim())
	f1 := par.Eval(params, g1)
	f2 := par.Eval(params, g2)
	if f1 != f2 {
		t.Errorf("repeated eval differs: %v vs %v", f1, f2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("grad[%d] not deterministic", i)
		}
	}
}

func TestTrainParallelLearns(t *testing.T) {
	xh, y := twoBlobs(300)
	opts := Options{MaxIterations: 30}
	opts.FitOptions.Workers = 4
	m, err := Train(context.Background(), xh, y, opts)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xh, y); acc < 0.99 {
		t.Errorf("parallel training accuracy = %v", acc)
	}
}

func TestParallelValidation(t *testing.T) {
	x := mat.NewDense(4, 2)
	// Labels are checked when the first pass binds to the shard; the
	// failure stops the optimizer through a NaN loss and is kept in Err.
	evalErr := func(y []float64) error {
		obj, err := NewParallelObjective(context.Background(), exec.Local(x, y, 2), preprocess.BinaryRule{}, 0.1, true)
		if err != nil {
			t.Fatal(err)
		}
		if loss := obj.Eval(make([]float64, obj.Dim()), make([]float64, obj.Dim())); !math.IsNaN(loss) {
			t.Errorf("loss %v on bad labels, want NaN", loss)
		}
		return obj.Err
	}
	if evalErr([]float64{0, 1}) == nil {
		t.Error("accepted mismatched labels")
	}
	if evalErr([]float64{0, 1, 2, 0}) == nil {
		t.Error("accepted label 2")
	}
	if _, err := NewParallelObjective(context.Background(), exec.Local(x, []float64{0, 1, 1, 0}, 2), preprocess.BinaryRule{}, -1, true); err == nil {
		t.Error("accepted negative lambda")
	}
	// A pool larger than the partition is clamped by the execution
	// layer at scan time.
	obj, err := NewParallelObjective(context.Background(), exec.Local(x, []float64{0, 1, 1, 0}, 100), preprocess.BinaryRule{}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if loss := obj.Eval(make([]float64, obj.Dim()), make([]float64, obj.Dim())); math.IsNaN(loss) || obj.Err != nil {
		t.Errorf("eval with 100 workers: loss %v, err %v", loss, obj.Err)
	}
}

func TestSigmoidLossStableAtExtremes(t *testing.T) {
	for _, z := range []float64{-750, -50, 0, 50, 750} {
		for _, y := range []float64{0, 1} {
			p, l := sigmoidLoss(z, y)
			if math.IsNaN(p) || math.IsNaN(l) || math.IsInf(l, 0) && math.Abs(z) < 700 {
				t.Errorf("sigmoidLoss(%v,%v) = %v, %v", z, y, p, l)
			}
			if p < 0 || p > 1 {
				t.Errorf("prob out of range: sigmoidLoss(%v,%v) = %v", z, y, p)
			}
			if l < 0 {
				t.Errorf("negative loss: sigmoidLoss(%v,%v) = %v", z, y, l)
			}
		}
	}
}
