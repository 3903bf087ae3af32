package span

import (
	"sort"

	"argo/internal/trace"
)

// Flows converts the record set's matched pub/sub pairs into Perfetto flow
// arrows (trace.Flow) in deterministic order. Each sub joins to the latest
// pub of the same (kind, key) not after it — the same relation the
// critical-path walk uses — so the arrows in the UI are exactly the edges
// the analyzer can take.
func Flows(recs []Record) []trace.Flow {
	sorted := append([]Record(nil), recs...)
	sortRecords(sorted)
	pubs := map[pubKey][]Record{}
	var subs []Record
	for _, r := range sorted {
		switch r.Type {
		case RPub:
			pk := pubKey{r.Kind, r.Key}
			pubs[pk] = append(pubs[pk], r)
		case RSub:
			subs = append(subs, r)
		}
	}
	var out []trace.Flow
	id := uint64(0)
	for _, s := range subs {
		ps := pubs[pubKey{s.Kind, s.Key}]
		i := sort.Search(len(ps), func(i int) bool { return ps[i].T > s.T })
		if i == 0 {
			continue
		}
		pb := ps[i-1]
		id++
		out = append(out, trace.Flow{
			Name: s.Kind.String(), ID: id,
			FromNode: pb.Node, FromTid: pb.Tid, FromT: pb.T,
			ToNode: s.Node, ToTid: s.Tid, ToT: s.T,
		})
	}
	return out
}
