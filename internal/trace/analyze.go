package trace

import (
	"fmt"
	"sort"
)

// AdAnalysis is the offline per-advertisement view recoverable from a trace
// alone (no re-simulation): reach, timing and traffic. "Reach" counts
// distinct peers that ever received the ad; it differs from the live
// delivery *rate*, whose denominator (peers passing through the area)
// needs trajectories.
type AdAnalysis struct {
	Ad          string
	IssuedAt    float64
	Issuer      int
	Reach       int     // distinct peers that received the ad
	TimeTo50    float64 // seconds from issue until half the final reach
	TimeToFull  float64 // seconds from issue until the last first-receive
	Broadcasts  int
	Bytes       int
	Duplicates  int
	Expirations int
}

// Analysis is the whole-trace report.
type Analysis struct {
	Peers int
	Ads   []AdAnalysis // sorted by issue time
}

// Analyze reconstructs per-ad dissemination facts from a recorded event
// stream. Membership events count toward Peers only.
func Analyze(events []Event) (Analysis, error) {
	if len(events) == 0 {
		return Analysis{}, fmt.Errorf("trace: empty trace")
	}
	type state struct {
		analysis     AdAnalysis
		receiveTimes []float64
		receivers    map[int]bool
	}
	byAd := make(map[string]*state)
	peers := make(map[int]bool)
	get := func(ad string) *state {
		st, ok := byAd[ad]
		if !ok {
			st = &state{analysis: AdAnalysis{Ad: ad, IssuedAt: -1, Issuer: -1}, receivers: make(map[int]bool)}
			byAd[ad] = st
		}
		return st
	}
	for _, e := range events {
		peers[e.Peer] = true
		if e.Kind.membership() {
			continue
		}
		st := get(e.Ad)
		switch e.Kind {
		case KindIssue:
			st.analysis.IssuedAt = e.T
			st.analysis.Issuer = e.Peer
		case KindBroadcast:
			st.analysis.Broadcasts++
			st.analysis.Bytes += e.Bytes
		case KindReceive:
			if !st.receivers[e.Peer] {
				st.receivers[e.Peer] = true
				st.receiveTimes = append(st.receiveTimes, e.T)
			}
		case KindDuplicate:
			st.analysis.Duplicates++
		case KindExpire:
			st.analysis.Expirations++
		}
	}

	out := Analysis{Peers: len(peers)}
	for _, st := range byAd {
		a := st.analysis
		a.Reach = len(st.receivers)
		if a.IssuedAt >= 0 && len(st.receiveTimes) > 0 {
			sort.Float64s(st.receiveTimes)
			half := st.receiveTimes[(len(st.receiveTimes)-1)/2]
			a.TimeTo50 = half - a.IssuedAt
			a.TimeToFull = st.receiveTimes[len(st.receiveTimes)-1] - a.IssuedAt
		}
		out.Ads = append(out.Ads, a)
	}
	sort.Slice(out.Ads, func(i, j int) bool {
		if out.Ads[i].IssuedAt != out.Ads[j].IssuedAt {
			return out.Ads[i].IssuedAt < out.Ads[j].IssuedAt
		}
		return out.Ads[i].Ad < out.Ads[j].Ad
	})
	return out, nil
}

// Render lays the analysis out as an aligned table.
func (a Analysis) Render() string {
	out := fmt.Sprintf("%d peers, %d ads\n", a.Peers, len(a.Ads))
	out += fmt.Sprintf("%-10s %8s %6s %9s %10s %10s %8s\n",
		"ad", "issued", "reach", "t50(s)", "tfull(s)", "broadcasts", "dup")
	for _, ad := range a.Ads {
		out += fmt.Sprintf("%-10s %8.1f %6d %9.1f %10.1f %10d %8d\n",
			ad.Ad, ad.IssuedAt, ad.Reach, ad.TimeTo50, ad.TimeToFull, ad.Broadcasts, ad.Duplicates)
	}
	return out
}
