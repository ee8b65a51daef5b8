package controlplane

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// The answers a round asks every device for travel as frame bodies, like
// the packet batch it sends:
//
//	measurement  packets | 7 × float
//	cache stats  count | count × ( table | hits | misses | inserts | rejected | evictions | invalidations | entries )
//	profile      actions | branches | cache hits | cache misses | update rates | key cardinality | flow cardinality | sample rate
//
// A map is count | count × ( name | value ), names strictly ascending; the
// actions map's values are maps of counts, a branch value is two counts. A
// name is a length and its bytes, a float its Float64bits as 8 big-endian
// bytes — bit for bit, NaN, ±Inf and −0 included — and every other number
// a uvarint in its shortest form. So a body the decoders accept is the one
// its answer encodes to.

// reader consumes a body front to back; every body decoder reads through
// one. A read that fails marks the reader bad, and every read after it
// fails too and yields zero.
type reader struct {
	data []byte
	bad  bool
}

// number reads a uvarint in its shortest form. With each > 0 it counts
// items of at least that many bytes apiece, and the bytes that remain must
// hold them, so nothing is sized by a count the input does not back.
func (r *reader) number(each uint64) (uint64, bool) {
	v, n := binary.Uvarint(r.data)
	if r.bad || n <= 0 || n > 1 && r.data[n-1] == 0 || each > 0 && v > uint64(len(r.data)-n)/each {
		r.bad = true
		return 0, false
	}
	r.data = r.data[n:]
	return v, true
}

// bytes reads a length and that many bytes, which alias the body.
func (r *reader) bytes() []byte {
	n, _ := r.number(1)
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// codec walks an answer in body order: encoding, it appends each value to
// out; decoding, it reads each from its reader into the answer. One walk
// per answer keeps the two directions in step.
type codec struct {
	reader
	decoding bool
	out      []byte
}

func (c *codec) count(v *uint64) {
	if c.decoding {
		*v, _ = c.number(0)
	} else {
		c.out = binary.AppendUvarint(c.out, *v)
	}
}

func (c *codec) int(v *int) {
	u := uint64(*v)
	c.count(&u)
	*v = int(u)
}

func (c *codec) float(f *float64) {
	switch {
	case !c.decoding:
		c.out = binary.BigEndian.AppendUint64(c.out, math.Float64bits(*f))
	case c.bad || len(c.data) < 8:
		c.bad = true
	default:
		*f, c.data = math.Float64frombits(binary.BigEndian.Uint64(c.data)), c.data[8:]
	}
}

func (c *codec) name(s *string) {
	if c.decoding {
		*s = string(c.bytes())
	} else {
		c.out = append(binary.AppendUvarint(c.out, uint64(len(*s))), *s...)
	}
}

// walkMap walks a map whose values take at least least bytes each.
func walkMap[V any](c *codec, m *map[string]V, least uint64, value func(*codec, *V)) {
	if !c.decoding {
		keys := make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.out = binary.AppendUvarint(c.out, uint64(len(keys)))
		for _, k := range keys {
			v := (*m)[k]
			c.name(&k)
			value(c, &v)
		}
		return
	}
	n, _ := c.number(1 + least)
	*m = make(map[string]V, n)
	prev := ""
	for i := range n {
		var k string
		var v V
		c.name(&k)
		value(c, &v)
		if i > 0 && k <= prev {
			c.bad = true
		}
		if c.bad {
			return
		}
		(*m)[k], prev = v, k
	}
}

func (c *codec) counts(m *map[string]uint64) { walkMap(c, m, 1, (*codec).count) }

func (c *codec) profile(p *profile.Profile) {
	walkMap(c, &p.ActionCounts, 1, (*codec).counts)
	walkMap(c, &p.BranchCounts, 2, func(c *codec, b *[2]uint64) { c.count(&b[0]); c.count(&b[1]) })
	c.counts(&p.CacheHits)
	c.counts(&p.CacheMisses)
	walkMap(c, &p.UpdateRates, 8, (*codec).float)
	c.counts(&p.KeyCardinality)
	c.count(&p.FlowCardinality)
	c.float(&p.SampleRate)
}

func (c *codec) cacheStats(cs *[]target.CacheStats) {
	n := uint64(len(*cs))
	if c.decoding {
		n, _ = c.number(1 + 7) // a name's length and seven numbers
		*cs = make([]target.CacheStats, n)
	} else {
		c.count(&n)
	}
	for i := range *cs {
		s := &(*cs)[i]
		c.name(&s.Table)
		for _, v := range [...]*uint64{&s.Hits, &s.Misses, &s.Inserts, &s.Rejected, &s.Evictions, &s.Invalidations} {
			c.count(v)
		}
		c.int(&s.Entries)
	}
}

func (c *codec) measurement(m *target.Measurement) {
	c.int(&m.Packets)
	for _, f := range [...]*float64{&m.MeanLatencyNs, &m.P99LatencyNs, &m.ThroughputGbps, &m.DropRate,
		&m.MeanMigrations, &m.VendorHitRate, &m.MeanCounterUpdates} {
		c.float(f)
	}
}

// encodeAnswer returns v's body; walk is one of the codec's answer walks.
func encodeAnswer[T any](walk func(*codec, *T), v T) []byte {
	var c codec
	walk(&c, &v)
	return c.out
}

// decodeAnswer reads a body that walk encoded.
func decodeAnswer[T any](walk func(*codec, *T), body []byte) (T, error) {
	c := codec{reader: reader{data: body}, decoding: true}
	var v T
	if walk(&c, &v); c.bad || len(c.data) > 0 {
		var zero T
		return zero, fmt.Errorf("controlplane: malformed %T body", v)
	}
	return v, nil
}

// encodeProfile is the body of a profile or counters answer; nil is the
// empty profile.
func encodeProfile(p *profile.Profile) []byte {
	if p == nil {
		p = profile.New()
	}
	return encodeAnswer((*codec).profile, *p)
}

func decodeProfile(body []byte) (*profile.Profile, error) {
	p, err := decodeAnswer((*codec).profile, body)
	if err != nil {
		return nil, err
	}
	return &p, nil
}
