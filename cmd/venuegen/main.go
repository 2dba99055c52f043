// Command venuegen generates the synthetic indoor venues used throughout the
// evaluation and prints their Table-2-style statistics.
//
// Usage:
//
//	venuegen -all -scale full        # every paper venue
//	venuegen -venue Men -scale small
//	venuegen -floors 10 -rooms 60    # a custom office building
package main

import (
	"flag"
	"fmt"
	"os"

	"viptree/internal/model"
	"viptree/internal/venuegen"
)

func main() {
	var (
		all       = flag.Bool("all", false, "generate all six paper venues (MC, MC-2, Men, Men-2, CL, CL-2)")
		venue     = flag.String("venue", "", "generate one paper venue: MC, MC-2, Men, Men-2, CL or CL-2")
		scale     = flag.String("scale", "small", "venue scale for the paper venues: tiny, small or full")
		floors    = flag.Int("floors", 0, "custom building: number of floors")
		rooms     = flag.Int("rooms", 0, "custom building: rooms per hallway")
		hallways  = flag.Int("hallways", 1, "custom building: hallways per floor")
		buildings = flag.Int("buildings", 0, "custom campus: number of buildings (implies a campus)")
		seed      = flag.Int64("seed", 1, "random seed for custom building/campus generation")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"venuegen generates the synthetic indoor venues used by the evaluation and\n"+
				"prints their Table-2-style statistics. Pick the paper venues (-all or\n"+
				"-venue, sized by -scale) or describe a custom building (-floors/-rooms/\n"+
				"-hallways) or campus (-buildings).\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	sc, err := venuegen.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	report := func(v *model.Venue) { fmt.Println(v.ComputeStats().String()) }
	reportNamed := func(names ...string) {
		for _, name := range names {
			v, err := venuegen.Named(name, sc)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			s := v.ComputeStats()
			s.Name = name
			fmt.Println(s.String())
		}
	}

	switch {
	case *all:
		reportNamed(venuegen.Names...)
	case *venue != "":
		reportNamed(*venue)
	case *buildings > 0:
		v := venuegen.MustCampus(venuegen.CampusConfig{
			Name:      "custom-campus",
			Buildings: *buildings,
			Building: venuegen.BuildingConfig{
				Floors:           max(*floors, 1),
				RoomsPerHallway:  max(*rooms, 10),
				HallwaysPerFloor: *hallways,
			},
			Jitter: true,
			Seed:   *seed,
		})
		report(v)
	case *floors > 0 || *rooms > 0:
		v := venuegen.MustBuilding(venuegen.BuildingConfig{
			Name:             "custom-building",
			Floors:           max(*floors, 1),
			RoomsPerHallway:  max(*rooms, 10),
			HallwaysPerFloor: *hallways,
			Seed:             *seed,
		})
		report(v)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
