package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"glr"
)

// fingerprint renders every field of a run report exactly, floats as
// their IEEE-754 bits, so two runs agree only if they are identical.
func fingerprint(r glr.Result) string {
	return fmt.Sprintf("gen=%d del=%d dup=%d lat=%016x hops=%016x ctl=%d data=%d ack=%d peak=%d avgpeak=%016x",
		r.Generated, r.Delivered, r.Duplicates, math.Float64bits(r.AvgLatency),
		math.Float64bits(r.AvgHops), r.ControlFrames, r.DataFrames, r.Acks,
		r.MaxPeakStorage, math.Float64bits(r.AvgPeakStorage))
}

// sane applies the bounds every report must meet, whatever its seed.
func sane(r glr.Result) error {
	switch {
	case r.Generated <= 0:
		return fmt.Errorf("no messages generated")
	case r.Delivered < 0 || r.Delivered > r.Generated:
		return fmt.Errorf("delivered %d of %d generated", r.Delivered, r.Generated)
	case math.IsNaN(r.DeliveryRatio) || r.DeliveryRatio < 0 || r.DeliveryRatio > 1:
		return fmt.Errorf("delivery ratio %v outside [0,1]", r.DeliveryRatio)
	case math.IsNaN(r.AvgLatency) || math.IsInf(r.AvgLatency, 0) || r.AvgLatency < 0:
		return fmt.Errorf("latency %v not finite and nonnegative", r.AvgLatency)
	case math.IsNaN(r.AvgHops) || math.IsInf(r.AvgHops, 0) || r.AvgHops < 0:
		return fmt.Errorf("hop count %v not finite and nonnegative", r.AvgHops)
	case r.Duplicates < 0 || r.MaxPeakStorage < 0:
		return fmt.Errorf("negative counters")
	}
	return nil
}

// referencesJSON maps "<workload>/<protocol>/<scenario seed>" to the
// fingerprint that world must reproduce. Regenerate with -record.
//
//go:embed references.json
var referencesJSON []byte

var references = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(referencesJSON, &m); err != nil {
		panic(fmt.Sprintf("references.json: %v", err))
	}
	return m
}()

// verify checks one world's report: sanity bounds always, and the
// recorded fingerprint when the world has one.
func verify(key string, r glr.Result) error {
	if err := sane(r); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if want, ok := references[key]; ok {
		if got := fingerprint(r); got != want {
			return fmt.Errorf("%s: report %s, reference %s", key, got, want)
		}
	}
	return nil
}
