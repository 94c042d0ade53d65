package crypto

import (
	"encoding/hex"
	"fmt"
	"testing"
)

// TestKnownAnswers pins the engine's pad, MAC and embedded check for one
// fixed key, address, counter and block. The values were computed with a
// FIPS-197 AES-128, so any change to the cipher, the key schedule, the
// 16-byte input packing or the dot-product key derivation fails here. The
// counter sets bits above 32, so the fifth counter byte of otpInput's
// packing is covered too.
func TestKnownAnswers(t *testing.T) {
	const (
		addr    = 0x12340
		counter = 0x0b0a090807

		wantOTP = "7e002c555b15d9af265f73c46c319dab4019b97976019138d5665216dccb67c8" +
			"b9259625033a5130ffe4c0be6a789566e667c598644102ed4bfca9bd58427437"
		wantMAC      = "e663b935e14082"
		wantEmbedded = "71f83dcc79d2be"
	)
	plain := make([]byte, BlockBytes)
	for i := range plain {
		plain[i] = byte(7*i + 3)
	}
	e := NewEngine([]byte("kat master key!!"))
	var pad, ct [BlockBytes]byte
	e.OTP(pad[:], addr, counter)
	if got := hex.EncodeToString(pad[:]); got != wantOTP {
		t.Errorf("OTP = %s, want %s", got, wantOTP)
	}
	e.Encrypt(ct[:], plain, addr, counter)
	mac := e.MAC(ct[:], addr, counter)
	if got := fmt.Sprintf("%014x", mac); got != wantMAC {
		t.Errorf("MAC = %s, want %s", got, wantMAC)
	}
	if got := fmt.Sprintf("%014x", e.EmbeddedCheck(ct[:], mac)); got != wantEmbedded {
		t.Errorf("EmbeddedCheck = %s, want %s", got, wantEmbedded)
	}
}

// TestNewEngineRejectsOtherKeySizes: the engine is AES-128 only, so the
// 24- and 32-byte keys an AES-192/256 would take are rejected like any
// other length that is not 16 bytes.
func TestNewEngineRejectsOtherKeySizes(t *testing.T) {
	for _, n := range []int{15, 24, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine accepted a %d-byte key", n)
				}
			}()
			NewEngine(make([]byte, n))
		}()
	}
}
