package cdr

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
)

var testCenter = geo.LatLon{Lat: 7.54, Lon: -5.55}

// testTable builds a small deterministic table: nUsers subscribers, each
// with nRecs events around a per-user anchor.
func testTable(nUsers, nRecs int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := &Table{Center: testCenter, SpanDays: 14}
	for u := 0; u < nUsers; u++ {
		anchorLat := testCenter.Lat + rng.Float64()*2 - 1
		anchorLon := testCenter.Lon + rng.Float64()*2 - 1
		id := userName(u)
		for r := 0; r < nRecs; r++ {
			t.Records = append(t.Records, Record{
				User: id,
				Pos: geo.LatLon{
					Lat: anchorLat + rng.NormFloat64()*0.01,
					Lon: anchorLon + rng.NormFloat64()*0.01,
				},
				Minute: rng.Float64() * 14 * MinutesPerDay,
			})
		}
	}
	return t
}

func userName(u int) string {
	return "user" + string(rune('A'+u%26)) + string(rune('0'+u/26))
}

func TestRecordValidate(t *testing.T) {
	good := Record{User: "u", Pos: testCenter, Minute: 5}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := []Record{
		{User: "", Pos: testCenter, Minute: 5},
		{User: "u", Pos: geo.LatLon{Lat: 999}, Minute: 5},
		{User: "u", Pos: testCenter, Minute: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
}

func TestTableUsersAndValidate(t *testing.T) {
	tab := testTable(7, 4, 1)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tab.Users(); got != 7 {
		t.Errorf("Users = %d, want 7", got)
	}
	tab.Center = geo.LatLon{Lat: 400}
	if err := tab.Validate(); err == nil {
		t.Error("invalid center accepted")
	}
}

func TestBuildDataset(t *testing.T) {
	tab := testTable(5, 10, 2)
	d, err := tab.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("dataset has %d fingerprints, want 5", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range d.Fingerprints {
		if f.Len() != 10 {
			t.Errorf("fingerprint %s has %d samples, want 10", f.ID, f.Len())
		}
		for _, s := range f.Samples {
			if s.DX != geo.GridPitchMeters || s.DY != geo.GridPitchMeters {
				t.Fatalf("sample not snapped to grid: %+v", s)
			}
			if s.DT != 1 || s.Weight != 1 {
				t.Fatalf("sample granularity wrong: %+v", s)
			}
			if math.Mod(s.X, geo.GridPitchMeters) != 0 || math.Mod(s.Y, geo.GridPitchMeters) != 0 {
				t.Fatalf("sample origin off-grid: %+v", s)
			}
		}
	}
}

func TestBuildDatasetDeterministic(t *testing.T) {
	tab := testTable(6, 5, 3)
	d1, err := tab.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := tab.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Fingerprints {
		if d1.Fingerprints[i].ID != d2.Fingerprints[i].ID {
			t.Fatal("user order not deterministic")
		}
	}
}

func TestFilterMinRate(t *testing.T) {
	tab := &Table{Center: testCenter, SpanDays: 2}
	// heavy: 4 records over 2 days (2/day); light: 1 record (0.5/day).
	for i := 0; i < 4; i++ {
		tab.Records = append(tab.Records, Record{User: "heavy", Pos: testCenter, Minute: float64(i)})
	}
	tab.Records = append(tab.Records, Record{User: "light", Pos: testCenter, Minute: 0})

	out := tab.FilterMinRate(1)
	if out.Users() != 1 {
		t.Fatalf("filter kept %d users, want 1", out.Users())
	}
	if len(out.Records) != 4 {
		t.Fatalf("filter kept %d records, want 4", len(out.Records))
	}
	// Zero span: no filtering possible.
	tab.SpanDays = 0
	if out := tab.FilterMinRate(1); out.Users() != 2 {
		t.Error("zero-span table filtered")
	}
}

func TestSubsetDays(t *testing.T) {
	tab := testTable(4, 20, 4)
	out := tab.SubsetDays(3)
	if out.SpanDays != 3 {
		t.Errorf("SpanDays = %d", out.SpanDays)
	}
	limit := 3.0 * MinutesPerDay
	for _, r := range out.Records {
		if r.Minute >= limit {
			t.Fatalf("record at minute %g survived 3-day subset", r.Minute)
		}
	}
	// Monotone: longer subsets contain shorter ones.
	out7 := tab.SubsetDays(7)
	if len(out7.Records) < len(out.Records) {
		t.Error("7-day subset smaller than 3-day subset")
	}
}

func TestSubsetUserFractionMonotoneNested(t *testing.T) {
	tab := testTable(200, 2, 5)
	users := func(t *Table) map[string]bool {
		m := make(map[string]bool)
		for _, r := range t.Records {
			m[r.User] = true
		}
		return m
	}
	prev := map[string]bool{}
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sub := tab.SubsetUserFraction(frac, 99)
		cur := users(sub)
		for u := range prev {
			if !cur[u] {
				t.Fatalf("user %s in smaller fraction but not larger", u)
			}
		}
		got := float64(len(cur)) / 200
		if math.Abs(got-frac) > 0.12 {
			t.Errorf("fraction %.2f kept %.2f of users", frac, got)
		}
		prev = cur
	}
	if n := len(tab.SubsetUserFraction(0, 99).Records); n != 0 {
		t.Errorf("fraction 0 kept %d records", n)
	}
}

func TestSubsetRegion(t *testing.T) {
	tab := &Table{Center: testCenter, SpanDays: 14}
	city := geo.LatLon{Lat: testCenter.Lat, Lon: testCenter.Lon}
	far := geo.LatLon{Lat: testCenter.Lat + 2, Lon: testCenter.Lon + 2}
	for i := 0; i < 5; i++ {
		tab.Records = append(tab.Records,
			Record{User: "urban", Pos: city, Minute: float64(i)},
			Record{User: "rural", Pos: far, Minute: float64(i)},
		)
	}
	out, err := tab.SubsetRegion(city, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Users() != 1 {
		t.Fatalf("region subset kept %d users, want 1", out.Users())
	}
	if out.Records[0].User != "urban" {
		t.Errorf("kept wrong user %s", out.Records[0].User)
	}
}

func TestPseudonymize(t *testing.T) {
	tab := testTable(10, 3, 6)
	out, err := tab.Pseudonymize(42)
	if err != nil {
		t.Fatal(err)
	}
	if out.Users() != 10 {
		t.Fatalf("pseudonymized table has %d users", out.Users())
	}
	orig := make(map[string]bool)
	for _, r := range tab.Records {
		orig[r.User] = true
	}
	for i, r := range out.Records {
		if orig[r.User] {
			t.Fatalf("record %d kept its original identifier", i)
		}
		// Same user, same pseudonym: group sizes preserved.
		if tab.Records[i].Minute != r.Minute {
			t.Fatal("pseudonymization reordered records")
		}
	}
	// Deterministic for the same salt, different for another salt.
	out2, err := tab.Pseudonymize(42)
	if err != nil {
		t.Fatal(err)
	}
	if out.Records[0].User != out2.Records[0].User {
		t.Error("pseudonymization not deterministic")
	}
	out3, err := tab.Pseudonymize(43)
	if err != nil {
		t.Fatal(err)
	}
	if out.Records[0].User == out3.Records[0].User {
		t.Error("different salts produced the same pseudonym")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := testTable(4, 6, 7)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	records, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(tab.Records) {
		t.Fatalf("round trip changed record count: %d != %d", len(records), len(tab.Records))
	}
	for i := range records {
		a, b := records[i], tab.Records[i]
		if a.User != b.User || a.Pos != b.Pos || a.Minute != b.Minute {
			t.Fatalf("record %d changed: %+v != %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"a,b,c,d\nu,1,2,3\n",
		"user,lat,lon,minute\nu,xx,2,3\n",
		"user,lat,lon,minute\nu,1,yy,3\n",
		"user,lat,lon,minute\nu,1,2,zz\n",
		"user,lat,lon,minute\nu,999,2,3\n",
		"user,lat,lon,minute\n,1,2,3\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestWriteAnonymizedCSV(t *testing.T) {
	tab := testTable(4, 5, 8)
	d, err := tab.BuildDataset()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAnonymizedCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+d.TotalSamples() {
		t.Fatalf("got %d lines, want %d", len(lines), 1+d.TotalSamples())
	}
	if !strings.HasPrefix(lines[0], "group,count,") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestUserHashUniform(t *testing.T) {
	// Crude uniformity check: over 2000 users, bucket counts into 4
	// quartiles of the hash range and expect rough balance.
	var buckets [4]int
	for i := 0; i < 2000; i++ {
		h := userHash(userName(i)+string(rune(i)), 7)
		buckets[h>>62]++
	}
	for i, c := range buckets {
		if c < 350 || c > 650 {
			t.Errorf("bucket %d has %d of 2000", i, c)
		}
	}
}

// ReadCSV reads every record of a raw record table written by WriteCSV
// through RecordReader, for tests that want the whole table in memory.
func ReadCSV(r io.Reader) ([]Record, error) {
	var out []Record
	rr := NewRecordReader(r)
	for {
		rec, err := rr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
