package hmc

import "testing"

// FuzzAddressRoundTrip checks the mask/mapping round-trip invariants
// of the address map for every geometry and max-block mode: Decode
// must stay in structural range and agree with the reference
// division-based decode (checkShiftDecode), Encode(Decode(a)) must
// decode back to the same (vault, bank, row), and the capacity mask
// must bound everything.
func FuzzAddressRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x1234_5678))
	f.Add(uint64(1)<<33 | 0x7f)
	f.Add(^uint64(0))
	f.Add(uint64(0x0000_0003_ffff_fff0))

	type cfg struct {
		m *AddressMap
	}
	var maps []cfg
	for _, gen := range []Generation{HMC10, HMC11, HMC20} {
		for _, mb := range []MaxBlockSize{Block16, Block32, Block64, Block128} {
			maps = append(maps, cfg{MustAddressMap(Geometries(gen), mb)})
		}
	}

	f.Fuzz(func(t *testing.T, addr uint64) {
		for _, c := range maps {
			m := c.m
			g := m.Geometry()
			loc := m.Decode(addr)
			if loc.Vault < 0 || loc.Vault >= g.Vaults {
				t.Fatalf("%v/%d: vault %d out of range for %#x", g.Gen, m.MaxBlock(), loc.Vault, addr)
			}
			if loc.Bank < 0 || loc.Bank >= g.BanksPerVault {
				t.Fatalf("%v/%d: bank %d out of range for %#x", g.Gen, m.MaxBlock(), loc.Bank, addr)
			}
			if loc.Quadrant != loc.Vault/g.VaultsPerQuadrant() {
				t.Fatalf("%v/%d: quadrant %d inconsistent with vault %d", g.Gen, m.MaxBlock(), loc.Quadrant, loc.Vault)
			}
			if loc.BlockOffset >= uint64(m.MaxBlock()) {
				t.Fatalf("%v/%d: block offset %d >= max block", g.Gen, m.MaxBlock(), loc.BlockOffset)
			}
			if gb := loc.GlobalBank(g); gb < 0 || gb >= g.Vaults*g.BanksPerVault {
				t.Fatalf("%v/%d: global bank %d out of range", g.Gen, m.MaxBlock(), gb)
			}
			checkShiftDecode(t, m, addr)

			enc := m.Encode(loc.Vault, loc.Bank, loc.Row)
			if enc > m.CapacityMask() {
				t.Fatalf("%v/%d: encoded %#x beyond capacity mask %#x", g.Gen, m.MaxBlock(), enc, m.CapacityMask())
			}
			back := m.Decode(enc)
			if back.Vault != loc.Vault || back.Bank != loc.Bank || back.Row != loc.Row {
				t.Fatalf("%v/%d: round trip %#x -> (v%d b%d r%d) -> %#x -> (v%d b%d r%d)",
					g.Gen, m.MaxBlock(), addr, loc.Vault, loc.Bank, loc.Row,
					enc, back.Vault, back.Bank, back.Row)
			}
			if back.BlockOffset != 0 {
				t.Fatalf("%v/%d: encode produced nonzero block offset %d", g.Gen, m.MaxBlock(), back.BlockOffset)
			}
		}
	})
}

// FuzzApplyMask checks the GUPS mask/anti-mask register semantics:
// bits in the zero mask (and not re-set by the anti-mask) are forced
// to zero, anti-mask bits are forced to one, and unconstrained bits
// pass through untouched.
func FuzzApplyMask(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(0x7f80), uint64(1)<<20)
	f.Add(uint64(0x1234_5678_9abc_def0), ^uint64(0), uint64(0xff))

	f.Fuzz(func(t *testing.T, addr, zero, one uint64) {
		got := ApplyMask(addr, zero, one)
		if got&(zero&^one) != 0 {
			t.Fatalf("ApplyMask(%#x, %#x, %#x) = %#x keeps zero-masked bits", addr, zero, one, got)
		}
		if got&one != one {
			t.Fatalf("ApplyMask(%#x, %#x, %#x) = %#x drops anti-mask bits", addr, zero, one, got)
		}
		free := ^(zero | one)
		if got&free != addr&free {
			t.Fatalf("ApplyMask(%#x, %#x, %#x) = %#x disturbs unconstrained bits", addr, zero, one, got)
		}
	})
}
