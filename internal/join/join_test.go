package join

import (
	"testing"

	"widx/internal/hashidx"
)

func TestSizeClasses(t *testing.T) {
	if Small.String() != "Small" || Medium.String() != "Medium" || Large.String() != "Large" {
		t.Fatal("size class names wrong")
	}
	if SizeClass(9).String() == "" {
		t.Fatal("unknown size class should still format")
	}
	// Paper sizes at scale 1.
	if Small.Tuples(1) != 4*1024 || Medium.Tuples(1) != 512*1024 || Large.Tuples(1) != 128*1024*1024 {
		t.Fatal("paper tuple counts wrong")
	}
	// Scaling preserves ordering and applies a floor.
	if !(Small.Tuples(0.001) <= Medium.Tuples(0.001) && Medium.Tuples(0.001) < Large.Tuples(0.001)) {
		t.Fatal("scaled ordering wrong")
	}
	if Small.Tuples(0) != Small.Tuples(1) {
		t.Fatal("zero scale should mean the paper size")
	}
	if Small.Tuples(1e-9) < 16 {
		t.Fatal("tuple floor missing")
	}
}

func TestKernelConfigValidate(t *testing.T) {
	if err := DefaultKernelConfig(Medium, 0.01).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []KernelConfig{
		{Size: SizeClass(7)},
		{Size: Small, Scale: -1},
		{Size: Small, OuterTuples: -5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
	if _, err := BuildKernel(KernelConfig{Size: Small, OuterTuples: -5}); err == nil {
		t.Fatal("BuildKernel accepted an invalid config")
	}
}

func TestBuildKernelSmall(t *testing.T) {
	cfg := DefaultKernelConfig(Small, 1)
	cfg.OuterTuples = 20000
	k, err := BuildKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.BuildKeys) != 4096 || len(k.ProbeKeys) != 20000 {
		t.Fatalf("sizes wrong: %d build, %d probe", len(k.BuildKeys), len(k.ProbeKeys))
	}
	// Every probe key joins (drawn from the build keys).
	if found := k.SoftwareProbe(); found != len(k.ProbeKeys) {
		t.Fatalf("SoftwareProbe found %d of %d", found, len(k.ProbeKeys))
	}
	// The chain depth target of ~2 nodes per bucket is respected.
	if avg := float64(len(k.BuildKeys)) / float64(k.Index.BucketMask()+1); avg > 3.0 {
		t.Fatalf("average nodes per bucket = %v, want ~2", avg)
	}
	if k.Index.FootprintBytes() == 0 {
		t.Fatal("zero footprint")
	}
}

func TestSizeClassFootprintOrdering(t *testing.T) {
	// At a small scale, footprints must still order Small < Medium < Large,
	// which is what places them on different cache levels.
	var prev uint64
	for _, size := range []SizeClass{Small, Medium, Large} {
		cfg := DefaultKernelConfig(size, 0.002)
		cfg.OuterTuples = 1000
		k, err := BuildKernel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if k.Index.FootprintBytes() <= prev {
			t.Fatalf("%v footprint %d not larger than previous %d", size, k.Index.FootprintBytes(), prev)
		}
		prev = k.Index.FootprintBytes()
	}
}

func TestKernelTraces(t *testing.T) {
	cfg := DefaultKernelConfig(Small, 1)
	cfg.OuterTuples = 5000
	k, err := BuildKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traces := k.Traces(100)
	if len(traces) != 100 {
		t.Fatalf("trace limit not applied: %d", len(traces))
	}
	for i, tr := range traces {
		if tr.KeyAddr != k.ProbeKeyBase+uint64(i)*8 {
			t.Fatalf("trace %d key address wrong", i)
		}
		if len(tr.Steps) == 0 {
			t.Fatalf("trace %d has no steps", i)
		}
		if tr.HashOps != hashidx.HashOps(hashidx.HashSimple) {
			t.Fatalf("trace %d hash ops wrong", i)
		}
	}
	all := k.Traces(0)
	if len(all) != 5000 {
		t.Fatalf("unlimited traces = %d", len(all))
	}
}

func TestKernelAgreesWithNativeJoin(t *testing.T) {
	cfg := DefaultKernelConfig(Small, 1)
	cfg.OuterTuples = 3000
	k, err := BuildKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	native := HashJoinNative(k.BuildKeys, k.ProbeKeys)
	if sw := k.SoftwareProbe(); sw != native {
		t.Fatalf("kernel probe found %d matches, native join %d", sw, native)
	}
}
