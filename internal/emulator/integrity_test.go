package emulator

import (
	"testing"

	"cadmc/internal/gateway"
)

// The ISSUE's end-to-end acceptance scenario: under seeded weight corruption
// plus one injected worker stall, the gateway must (a) detect the poisoned
// variant BEFORE it is swapped into the request path and quarantine it,
// (b) keep serving bit-exact logits from the last-known-good variant,
// (c) restart the stalled worker with exact accounting — Admitted ==
// Completed + Shed, no request answered twice, no duplicate request IDs.
// Run with -race -count=2.
func TestIntegrityScenarioEndToEnd(t *testing.T) {
	opts := IntegrityOptions{Seed: 41}
	res, err := RunIntegrity(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report

	// (a) Quarantine before swap: exactly the corrupted signature is
	// quarantined, the swap manager still wants the high class but serves
	// the low one, and no phase-2 completion ever carried the poisoned sig.
	if len(res.Quarantined) != 1 || res.Quarantined[0] != res.CorruptSig {
		t.Fatalf("quarantined %v, want exactly [%s]", res.Quarantined, res.CorruptSig)
	}
	if rep.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", rep.Quarantines)
	}
	if rep.Rollbacks < 1 {
		t.Fatalf("Rollbacks = %d, want >= 1", rep.Rollbacks)
	}
	if res.DesiredClass != 1 || res.ServedClass != 0 {
		t.Fatalf("desired/served = %d/%d, want 1/0 (degraded but serving)", res.DesiredClass, res.ServedClass)
	}
	for i, rec := range res.Records {
		if rec.Phase >= 1 && rec.Result.VariantSig == res.CorruptSig {
			t.Fatalf("record %d (phase %d) served by poisoned variant %s after corruption",
				i, rec.Phase, res.CorruptSig)
		}
	}

	// (b) Bit-exact last-known-good: rebuild an identically seeded reference
	// provider and recompute every post-corruption answer out of band. The
	// low-class variant is edge-resident, so its logits are a pure local
	// forward pass — bitwise reproducible by construction.
	tree, err := gateway.DemoTree(ClassMbps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gateway.NewVariantProvider(tree, res.Options.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := ref.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	perPhase := RequestsPerSession * res.Options.Sessions
	checked := 0
	for i, rec := range res.Records {
		if rec.Phase < 1 {
			continue
		}
		if rec.Result.VariantSig != v0.Sig {
			t.Fatalf("record %d (phase %d) served by %q, want last-known-good %q",
				i, rec.Phase, rec.Result.VariantSig, v0.Sig)
		}
		want, err := v0.Net.Forward(rec.Input)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Result.Logits) != want.Len() {
			t.Fatalf("record %d: %d logits, want %d", i, len(rec.Result.Logits), want.Len())
		}
		for j := range rec.Result.Logits {
			if rec.Result.Logits[j] != want.Data[j] { //cadmc:allow floateq -- bit-exactness is the contract under test
				t.Fatalf("record %d logit %d: %v != %v (not bit-exact)", i, j, rec.Result.Logits[j], want.Data[j])
			}
		}
		checked++
	}
	if checked != 2*perPhase {
		t.Fatalf("checked %d post-corruption records, want %d", checked, 2*perPhase)
	}

	// (c) Self-healing accounting: the stalled worker was restarted, its
	// batch re-queued, and the ledger balances exactly.
	if rep.Restarts < 1 {
		t.Fatalf("Restarts = %d, want >= 1", rep.Restarts)
	}
	if rep.Requeued < 1 {
		t.Fatalf("Requeued = %d, want >= 1", rep.Requeued)
	}
	wantAdmitted := int64(len(IntegrityPhaseMbps) * perPhase)
	if rep.Admitted != wantAdmitted {
		t.Fatalf("Admitted = %d, want %d", rep.Admitted, wantAdmitted)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("ledger broken: Admitted %d != Completed %d + Shed %d",
			rep.Admitted, rep.Completed, rep.Shed)
	}
	if rep.Shed != 0 {
		t.Fatalf("Shed = %d, want 0 (capacity covers the whole replay)", rep.Shed)
	}
	seen := make(map[uint64]int)
	for i, rec := range res.Records {
		if prev, dup := seen[rec.Result.RequestID]; dup {
			t.Fatalf("records %d and %d share request ID %d", prev, i, rec.Result.RequestID)
		}
		seen[rec.Result.RequestID] = i
	}

	// Determinism rider: the injected fault itself replays bit-identically.
	res2, err := RunIntegrity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Corruption != res.Corruption {
		t.Fatalf("corruption not deterministic: %+v vs %+v", res2.Corruption, res.Corruption)
	}
}
