package core

import (
	"strings"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

func TestDescribeDeployment(t *testing.T) {
	rec := &fakeReceptor{id: "r0", typ: receptor.TypeRFID, schema: rfidRaw}
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{rec},
		Groups:    singleGroup("shelf0", receptor.TypeRFID, "r0"),
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeRFID: {
				Type:      receptor.TypeRFID,
				Point:     PointChecksum("checksum_ok"),
				Smooth:    SmoothTagCount(5 * time.Second),
				Arbitrate: ArbitrateMaxSum("tag_id", "n"),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{
		"epoch 1s", "type rfid", "r0@shelf0",
		"Point", "point-checksum", "Smooth", "cql:", "Arbitrate",
		"output (spatial_granule", // arbitrate output schema
	} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestDescribePassThroughAndVirtualize(t *testing.T) {
	moteSchema := stream.MustSchema(
		stream.Field{Name: "mote_id", Kind: stream.KindString},
		stream.Field{Name: "noise", Kind: stream.KindFloat},
	)
	mote := &fakeReceptor{id: "m1", typ: receptor.TypeMote, schema: moteSchema}
	x10 := &fakeReceptor{id: "x1", typ: receptor.TypeMotion, schema: stream.MustSchema(
		stream.Field{Name: "detector_id", Kind: stream.KindString},
		stream.Field{Name: "value", Kind: stream.KindString},
	)}
	rfid := &fakeReceptor{id: "r0", typ: receptor.TypeRFID, schema: rfidRaw}
	groups := receptor.NewGroups()
	groups.MustAdd(receptor.Group{Name: "sound", Type: receptor.TypeMote, Members: []string{"m1"}})
	groups.MustAdd(receptor.Group{Name: "motion", Type: receptor.TypeMotion, Members: []string{"x1"}})
	groups.MustAdd(receptor.Group{Name: "badge", Type: receptor.TypeRFID, Members: []string{"r0"}})
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{mote, x10, rfid},
		Groups:    groups,
		Virtualize: &VirtualizeSpec{
			Query: PersonDetectorQuery(525, 2),
			Bind: map[string]receptor.Type{
				"sensors_input": receptor.TypeMote,
				"rfid_input":    receptor.TypeRFID,
				"motion_input":  receptor.TypeMotion,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{"pass-through", "Virtualize:", "sensors_input<-mote", "(event string)"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}
