package testkit

import (
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// QuickSeedEnv names the environment variable that seeds every property
// check: unset, each test draws from its fixed seed (the FNV-1a hash of
// its name), so two runs test the same inputs; an integer replays that
// seed in every check that runs; "fresh" draws a new seed per check, as
// `make flakehunt` does.
const QuickSeedEnv = "ROBOADS_QUICK_SEED"

// Quick returns the testing/quick configuration of one property check of
// t: maxCount cases (0: quick's default) drawn from a seeded *rand.Rand.
// When t fails, the seed is logged with the command that replays it.
func Quick(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	seed := int64(h.Sum64())
	switch v := os.Getenv(QuickSeedEnv); v {
	case "":
	case "fresh":
		seed = time.Now().UnixNano()
	default:
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s=%q: want an integer seed or \"fresh\"", QuickSeedEnv, v)
		}
		seed = s
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("property seed %d: replay with %s=%d go test -run '^%s$'", seed, QuickSeedEnv, seed, t.Name())
		}
	})
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
