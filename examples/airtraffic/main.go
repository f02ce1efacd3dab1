// Air traffic flow management: the paper's §4.1 working domain.
//
// "In the air traffic flow management domain, these sub-schemata might
// include facilities (airports and runways), weather, and routing."
//
// This example matches two ER models of that domain, demonstrating the
// engineer's documented workflow:
//
//  1. focus on entities only (depth filter) to establish top-level
//     correspondences;
//  2. drop to the domain values (the §2 pattern: engineers inspect
//     coding schemes before attributes) — the domain voter exploits
//     shared ICAO coding schemes;
//  3. focus on the Facility sub-schema (sub-tree filter), confirm its
//     links and mark it complete, watching the progress bar;
//  4. rerun the engine, which learns from the feedback.
//
// Run:
//
//	go run ./examples/airtraffic
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	workbench "repro"
)

const faaER = `
schema FAA "FAA air traffic flow management model"

domain AircraftType "ICAO aircraft type designators" {
  B738 "Boeing 737-800 narrowbody jet"
  A320 "Airbus A320 narrowbody jet"
  E145 "Embraer 145 regional jet"
  C130 "Lockheed C-130 Hercules transport"
}

domain RunwayCondition "Reported runway surface condition" {
  DRY "Dry surface"
  WET "Wet surface"
  SNOW "Snow covered"
  ICE "Ice covered"
}

entity Facility "An airport or other ground facility in the national airspace" {
  facilityID string key      "Unique identifier assigned to the facility"
  name       string required "Official name of the facility"
  elevation  int             "Field elevation above sea level in feet"
  condition  string domain(RunwayCondition) "Current condition of the primary runway"
}

entity Weather "A weather observation affecting traffic flow" {
  stationID   string key "Identifier of the observing station"
  visibility  int        "Horizontal visibility in statute miles"
  windSpeed   int        "Sustained wind speed in knots"
}

entity Route "A route through the airspace between facilities" {
  routeID   string key "Unique identifier for the route"
  originID  string required "Identifier of the departure facility"
  acType    string domain(AircraftType) "Type of aircraft flown on this route"
}

relationship departsFrom Route -> Facility "A route departs from a facility"
`

const euroER = `
schema Eurocontrol "European air traffic control conceptual model"

domain AircraftDesignator "Aircraft type designators per ICAO doc 8643" {
  B738 "Boeing 737-800"
  A320 "Airbus A320"
  E145 "Embraer ERJ-145"
  A400 "Airbus A400M Atlas transport"
}

domain SurfaceState "State of the runway surface" {
  DRY "Dry runway"
  WET "Wet runway"
  SNOW "Snow on runway"
  SLUSH "Slush on runway"
}

entity Aerodrome "An aerodrome serving air traffic in European airspace" {
  aerodromeCode string key "Unique code assigned to the aerodrome"
  title         string required "Official title of the aerodrome"
  altitude      int    "Altitude of the field above sea level in metres"
  surfaceState  string domain(SurfaceState) "Present state of the main runway surface"
}

entity Meteorology "A meteorological report used for flow planning" {
  reportID   string key "Identifier of the meteorological report"
  visibility int        "Visibility distance in kilometres"
  wind       int        "Wind velocity in kilometres per hour"
}

entity Airway "An airway connecting aerodromes" {
  airwayCode     string key "Unique code of the airway"
  departureCode  string required "Code of the departure aerodrome"
  planeKind      string domain(AircraftDesignator) "Kind of plane operating the airway"
}

relationship origin Airway -> Aerodrome "An airway originates at an aerodrome"
`

func main() {
	src, err := workbench.LoadER("FAA", strings.NewReader(faaER))
	if err != nil {
		log.Fatal(err)
	}
	tgt, err := workbench.LoadER("Eurocontrol", strings.NewReader(euroER))
	if err != nil {
		log.Fatal(err)
	}

	engine := workbench.NewEngine(src, tgt, workbench.EngineOptions{Flooding: true})
	engine.Run()

	// Step 1: entities only (depth filter), max-confidence links.
	fmt.Println("== Step 1: top-level entity correspondences (depth ≤ 1) ==")
	entityView := workbench.View{
		MaxConfidence:     true,
		LinkFilters:       []workbench.LinkFilter{workbench.ConfidenceFilter(0.1)},
		SourceNodeFilters: []workbench.NodeFilter{workbench.DepthFilter(1), workbench.KindFilter(workbench.KindEntity)},
		TargetNodeFilters: []workbench.NodeFilter{workbench.DepthFilter(1), workbench.KindFilter(workbench.KindEntity)},
	}
	for _, l := range engine.Links(entityView) {
		fmt.Printf("  %s\n", l.Correspondence)
	}

	// Step 2: the coding-scheme signal. Even with alien names (acType vs
	// planeKind), shared ICAO codes give the pair away.
	fmt.Println("\n== Step 2: domain values betray acType ↔ planeKind ==")
	m := engine.Matrix()
	fmt.Printf("  acType ↔ planeKind      %+.2f  (shared ICAO codes)\n",
		m.Get("FAA/Route/acType", "Eurocontrol/Airway/planeKind"))
	fmt.Printf("  acType ↔ surfaceState   %+.2f  (disjoint coding schemes)\n",
		m.Get("FAA/Route/acType", "Eurocontrol/Aerodrome/surfaceState"))

	// Step 3: focus on the Facility sub-schema, decide, mark complete.
	fmt.Println("\n== Step 3: Facility sub-schema focus ==")
	facility := src.MustElement("FAA/Facility")
	subView := workbench.View{
		MaxConfidence:     true,
		LinkFilters:       []workbench.LinkFilter{workbench.ConfidenceFilter(0.1)},
		SourceNodeFilters: []workbench.NodeFilter{workbench.SubtreeFilter(facility)},
	}
	for _, l := range engine.Links(subView) {
		fmt.Printf("  %s\n", l.Correspondence)
	}
	// The engineer confirms the Facility links and one subtlety: the
	// elevation (feet) ↔ altitude (metres) pair needs a unit conversion
	// later, but the correspondence itself is right.
	pairs := [][2]string{
		{"FAA/Facility", "Eurocontrol/Aerodrome"},
		{"FAA/Facility/facilityID", "Eurocontrol/Aerodrome/aerodromeCode"},
		{"FAA/Facility/name", "Eurocontrol/Aerodrome/title"},
		{"FAA/Facility/elevation", "Eurocontrol/Aerodrome/altitude"},
		{"FAA/Facility/condition", "Eurocontrol/Aerodrome/surfaceState"},
	}
	for _, p := range pairs {
		if err := engine.Accept(p[0], p[1]); err != nil {
			log.Fatal(err)
		}
	}
	engine.MarkSubtreeComplete(facility, 0.3)
	fmt.Printf("Progress after completing Facility: %.0f%%\n", 100*engine.Progress())

	// Step 4: learn and rerun; decisions survive, weights adapt.
	engine.Learn()
	engine.Run()
	fmt.Println("\n== Step 4: after learning + rerun ==")
	fmt.Printf("  facilityID ↔ aerodromeCode pinned at %+.0f (user decision survives)\n",
		engine.Matrix().Get("FAA/Facility/facilityID", "Eurocontrol/Aerodrome/aerodromeCode"))
	fmt.Println("  learned voter weights:")
	weights := engine.Merger().Weights()
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("    %-22s %.3f\n", name, weights[name])
	}
	fmt.Printf("  overall progress: %.0f%%\n", 100*engine.Progress())
}
