package wire

import "testing"

func TestZeroMessageEncodes(t *testing.T) {
	enc, err := EncodeMessage(&Message{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != 0 || got.TTL != 0 {
		t.Fatalf("zero message mutated: %+v", got)
	}
}

func TestTypeStrings(t *testing.T) {
	types := []Type{
		TProbe, TProbeResp, TConnect, TBackConnect, TBackAccept,
		TAdvertise, TJoin, TJoinAck, TSearch, TSearchHit, TPayload,
		TBeacon, TLeave, THeartbeat, THeartbeatAck,
	}
	seen := make(map[string]bool, len(types))
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q for %d", s, int(ty))
		}
		seen[s] = true
	}
	if Type(99).String() != "type(99)" {
		t.Fatalf("unknown type name = %q", Type(99).String())
	}
}
