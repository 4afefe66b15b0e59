// Package receptor defines the physical-device abstraction ESP cleans
// data from: a Receptor produces a timestamped tuple stream, and a Groups
// registry organises receptors into the paper's proximity groups — sets
// of same-type devices monitoring one spatial granule.
package receptor

import (
	"fmt"
	"sort"
	"time"

	"esp/internal/stream"
)

// Type classifies receptor hardware. The pipeline treats types opaquely;
// they matter for proximity grouping (groups are same-type) and for the
// Virtualize stage, which crosses types.
type Type string

// Receptor types used by the paper's three deployments.
const (
	TypeRFID   Type = "rfid"
	TypeMote   Type = "mote"
	TypeMotion Type = "motion"
)

// Receptor is a physical device producing readings. Implementations are
// pull-driven: the ESP processor polls each receptor once per epoch.
type Receptor interface {
	// ID uniquely identifies the device.
	ID() string
	// Type reports the device class.
	Type() Type
	// Schema describes the tuples Poll returns.
	Schema() *stream.Schema
	// Poll advances the device to now and returns the readings it
	// reports for the epoch ending at now. Polls must be called with
	// strictly increasing times.
	//
	// The returned slice and its tuples' Values are borrowed: they are
	// valid until the receptor's next Poll, which may reuse both
	// (Channel does). A caller that keeps readings past that — a trace
	// recorder, a wrapping receptor holding delayed tuples — copies them
	// out with their values (stream.Tuple.Clone).
	Poll(now time.Time) []stream.Tuple
}

// Actuatable is implemented by receptors whose sampling rate ESP can
// adjust — the paper's §5.3.1 receptor actuation: "ideally, ESP should be
// able to actuate the sensors to increase the number of readings within a
// temporal granule such that it can effectively smooth with a window the
// same size as the temporal granule".
type Actuatable interface {
	Receptor
	// SetSampleInterval asks the device to sample every d (0 restores
	// one sample per poll). Takes effect from the next Poll.
	SetSampleInterval(d time.Duration)
	// SampleInterval reports the current setting.
	SampleInterval() time.Duration
}

// Group is a proximity group: same-type receptors monitoring one spatial
// granule.
type Group struct {
	// Name identifies the group and doubles as the spatial granule value
	// ESP attaches to the group's readings.
	Name string
	// Type is the receptor type all members share.
	Type Type
	// Members lists member receptor IDs.
	Members []string
}

// Groups is the proximity-group registry: the deployment-time description
// of which devices watch which spatial granule. Relationships may be
// one-to-many, many-to-one, or many-to-many; the registry hides them from
// the application (paper §3.1.2).
type Groups struct {
	byName   map[string]*Group
	byMember map[string][]string // receptor ID -> group names
}

// NewGroups returns an empty registry.
func NewGroups() *Groups {
	return &Groups{
		byName:   make(map[string]*Group),
		byMember: make(map[string][]string),
	}
}

// Add registers a proximity group. Group names must be unique; a receptor
// may belong to several groups (many-to-many granule relationships).
func (g *Groups) Add(group Group) error {
	if group.Name == "" {
		return fmt.Errorf("receptor: group with empty name")
	}
	if _, dup := g.byName[group.Name]; dup {
		return fmt.Errorf("receptor: duplicate group %q", group.Name)
	}
	if len(group.Members) == 0 {
		return fmt.Errorf("receptor: group %q has no members", group.Name)
	}
	seen := make(map[string]bool, len(group.Members))
	for _, m := range group.Members {
		if m == "" {
			return fmt.Errorf("receptor: group %q has an empty member ID", group.Name)
		}
		if seen[m] {
			return fmt.Errorf("receptor: group %q lists member %q twice", group.Name, m)
		}
		seen[m] = true
	}
	cp := group
	cp.Members = append([]string(nil), group.Members...)
	g.byName[group.Name] = &cp
	for _, m := range cp.Members {
		g.byMember[m] = append(g.byMember[m], group.Name)
	}
	return nil
}

// MustAdd is Add that panics on error, for static deployments.
func (g *Groups) MustAdd(group Group) {
	if err := g.Add(group); err != nil {
		panic(err)
	}
}

// Group looks up a group by name.
func (g *Groups) Group(name string) (*Group, bool) {
	gr, ok := g.byName[name]
	return gr, ok
}

// Of returns the names of the groups a receptor belongs to, sorted.
func (g *Groups) Of(receptorID string) []string {
	names := append([]string(nil), g.byMember[receptorID]...)
	sort.Strings(names)
	return names
}

// Names lists all group names, sorted.
func (g *Groups) Names() []string {
	names := make([]string, 0, len(g.byName))
	for n := range g.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OfType lists the names of groups of the given type, sorted.
func (g *Groups) OfType(t Type) []string {
	var names []string
	for n, gr := range g.byName {
		if gr.Type == t {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
