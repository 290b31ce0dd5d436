package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Wire constants of the binary client protocol (DESIGN.md §14). The
// generator speaks the protocol itself so the program under test only
// ever receives generated frames.
const (
	frameGob    byte = 0x00
	frameUpdate byte = 0x01
	frameTask   byte = 0x03
	frameHdrLen      = 5
	// updateHdrLen is the frame header plus the BaseVersion field, the
	// only bytes of an update frame the generator patches per send.
	updateHdrLen = frameHdrLen + 8
)

var binaryPreamble = [4]byte{0x00, 'A', 'F', 1}

// poolSpec fixes the shape of a workload's update pool.
type poolSpec struct {
	dim       int
	clients   int
	attackers int
	attack    string
	// buckets is the number of staleness buckets, StalenessLimit+1.
	buckets int
}

// pool holds every update the generator can send, pre-encoded: one delta
// slab per (client, staleness bucket), plus one Hello frame per client.
// Slabs are shared read-only by all connections; only the 13-byte frame
// header (kind, length, BaseVersion) is per connection.
type pool struct {
	spec     poolSpec
	attacker []bool
	// slab[c*buckets+s] is the little-endian float64 delta of client c
	// drawn from staleness bucket s.
	slab [][]byte
	// hello[c] is the binary preamble followed by client c's Hello frame.
	hello  [][]byte
	digest string
}

func (p *pool) body(client, bucket int) []byte { return p.slab[client*p.spec.buckets+bucket] }

// Honest update model. Every honest delta is the bucket's drift (a
// shared direction that rotates with staleness, so staleness groups have
// distinct means as in the paper), plus a per-client non-IID offset, plus
// per-update noise. Attackers craft theirs from their own honest deltas.
const (
	coordScale    = 0.01
	driftRotation = 0.08
	offsetScale   = 0.3
	noiseScale    = 0.5
	helloSamples  = 100
)

// newPool builds the pool for spec from seed. The same seed always gives
// a byte-identical pool (and digest).
func newPool(spec poolSpec, seed int64) (*pool, error) {
	r := randx.New(seed)
	p := &pool{
		spec:     spec,
		attacker: make([]bool, spec.clients),
		slab:     make([][]byte, spec.clients*spec.buckets),
		hello:    make([][]byte, spec.clients),
	}
	for _, c := range randx.SampleWithoutReplacement(r, spec.clients, spec.attackers) {
		p.attacker[c] = true
	}
	var atk attack.Attack = attack.None{}
	if spec.attackers > 0 {
		var err error
		if atk, err = attack.New(attack.Config{Name: spec.attack}); err != nil {
			return nil, err
		}
	}

	base := randx.NormalVector(r, spec.dim, 0, 1)
	turn := randx.NormalVector(r, spec.dim, 0, 1)
	offsets := make([][]float64, spec.clients)
	for c := range offsets {
		offsets[c] = randx.NormalVector(r, spec.dim, 0, offsetScale)
	}
	deltas := make([][]float64, spec.clients)
	for c := range deltas {
		deltas[c] = make([]float64, spec.dim)
	}
	for s := 0; s < spec.buckets; s++ {
		for c, d := range deltas {
			for i := range d {
				drift := base[i] + driftRotation*float64(s)*turn[i]
				d[i] = coordScale * (drift + offsets[c][i] + noiseScale*r.NormFloat64())
			}
		}
		if err := p.craft(atk, deltas, r); err != nil {
			return nil, err
		}
		for c, d := range deltas {
			p.slab[c*spec.buckets+s] = encodeSlab(d)
		}
	}
	for c := range p.hello {
		h, err := encodeHello(c, spec.dim)
		if err != nil {
			return nil, err
		}
		p.hello[c] = h
	}
	p.digest = p.computeDigest()
	return p, nil
}

// craft replaces the attackers' honest deltas with the attack's output,
// computed from the attackers' own honest deltas (the paper's threat
// model: attackers know only their own updates).
func (p *pool) craft(atk attack.Attack, deltas [][]float64, r *rand.Rand) error {
	var idx []int
	var honest [][]float64
	for c, bad := range p.attacker {
		if bad {
			idx = append(idx, c)
			honest = append(honest, deltas[c])
		}
	}
	if len(idx) == 0 {
		return nil
	}
	crafted, err := atk.Craft(honest, r)
	if err != nil {
		return fmt.Errorf("craft %s: %w", atk.Name(), err)
	}
	for i, c := range idx {
		copy(deltas[c], crafted[i])
	}
	return nil
}

func encodeSlab(d []float64) []byte {
	b := make([]byte, 8*len(d))
	for i, x := range d {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// encodeHello builds the connection opening of a binary-codec client:
// the preamble, then the Hello as a gob-in-frame message.
func encodeHello(client, dim int) ([]byte, error) {
	var buf bytes.Buffer
	msg := transport.ClientMsg{Hello: &transport.Hello{
		ClientID:   client,
		NumSamples: helloSamples,
		ModelDim:   dim,
		Codec:      transport.CodecBinary,
	}}
	if err := gob.NewEncoder(&buf).Encode(&msg); err != nil {
		return nil, fmt.Errorf("encode hello: %w", err)
	}
	out := append([]byte(nil), binaryPreamble[:]...)
	out = append(out, frameGob, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[len(out)-4:], uint32(buf.Len()))
	return append(out, buf.Bytes()...), nil
}

// computeDigest hashes everything the program can receive from the pool.
func (p *pool) computeDigest() string {
	h := sha256.New()
	var hdr [8]byte
	for _, v := range []int{p.spec.dim, p.spec.clients, p.spec.buckets} {
		binary.LittleEndian.PutUint64(hdr[:], uint64(v))
		h.Write(hdr[:])
	}
	for _, bad := range p.attacker {
		if bad {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, b := range p.slab {
		h.Write(b)
	}
	for _, b := range p.hello {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
