// Command mobgen generates NS-2 movement scripts (setdest format) from this
// repo's mobility models, or inspects an existing script. Generated traces
// plug back into scenarios via Scenario.TraceFile and into NS-2 itself.
//
// Usage:
//
//	mobgen -n 300 -model random-waypoint -horizon 2000 -out move.ns2
//	mobgen -n 200 -model road -road city.txt -out urban.ns2
//	mobgen -emit-road grid.txt              # write the synthetic grid road file
//	mobgen -info move.ns2
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"instantad/internal/geo"
	"instantad/internal/mobility"
	"instantad/internal/rng"
	"instantad/internal/roadnet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is mobgen on the given arguments and streams. It returns the exit
// code: 2 for a bad invocation (flags or the models they make), 1 for a
// file that could not be read or written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 300, "number of nodes")
		model    = fs.String("model", "random-waypoint", "random-waypoint | random-walk | manhattan | road")
		fieldW   = fs.Float64("field", 1500, "square field side, meters")
		speed    = fs.Float64("speed", 10, "mean speed, m/s")
		delta    = fs.Float64("speed-delta", 5, "speed spread")
		pause    = fs.Float64("pause", 10, "waypoint pause, s")
		block    = fs.Float64("block", 150, "manhattan block size, m")
		horizon  = fs.Float64("horizon", 2000, "trajectory length, s")
		seed     = fs.Uint64("seed", 1, "random seed")
		out      = fs.String("out", "-", "output file ('-' for stdout)")
		info     = fs.String("info", "", "inspect an existing movement script instead")
		roadFile = fs.String("road", "", "road graph file for -model road (empty = synthetic grid over the field)")
		emitRoad = fs.String("emit-road", "", "write the synthetic grid road graph to this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "mobgen: %v\n", err)
		return code
	}

	if *info != "" {
		if err := inspect(*info, stdout); err != nil {
			return fail(1, err)
		}
		return 0
	}
	side := int(*fieldW / *block) + 1
	if *emitRoad != "" {
		g, err := roadnet.Grid(side, side, *block)
		if err != nil {
			return fail(2, err)
		}
		var buf bytes.Buffer
		g.Write(&buf) // a bytes.Buffer write cannot fail
		if err := os.WriteFile(*emitRoad, buf.Bytes(), 0o644); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "wrote %s: %d intersections, %d road segments, %.0f m total\n",
			*emitRoad, g.N(), g.M(), g.TotalLength())
		return 0
	}
	if *n <= 0 {
		return fail(2, fmt.Errorf("-n %d must be > 0", *n))
	}

	var graph *roadnet.Graph
	if *model == "road" {
		var err error
		if *roadFile != "" {
			if graph, err = roadnet.Load(*roadFile); err != nil {
				return fail(1, err)
			}
		} else if graph, err = roadnet.Grid(side, side, *block); err != nil {
			return fail(2, err)
		}
	}
	field := geo.NewRect(*fieldW, *fieldW)
	root := rng.New(*seed)
	models := make([]mobility.Model, *n)
	for i := range models {
		s := root.SplitIndex("mobility", i)
		var err error
		switch *model {
		case "random-waypoint":
			models[i], err = mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
				Field: field, SpeedMean: *speed, SpeedDelta: *delta,
				Pause: *pause, Horizon: *horizon,
			}, s)
		case "random-walk":
			models[i], err = mobility.NewRandomWalk(mobility.RandomWalkConfig{
				Field: field, SpeedMean: *speed, SpeedDelta: *delta,
				Epoch: 30, Horizon: *horizon,
			}, s)
		case "manhattan":
			models[i], err = mobility.NewManhattan(mobility.ManhattanConfig{
				Field: field, BlockSize: *block,
				SpeedMean: *speed, SpeedDelta: *delta, Horizon: *horizon,
			}, s)
		case "road":
			models[i], err = mobility.NewRoad(mobility.RoadConfig{
				Graph: graph, SpeedMean: *speed, SpeedDelta: *delta,
				Pause: *pause, Horizon: *horizon,
			}, s)
		default:
			err = fmt.Errorf("unknown model %q", *model)
		}
		if err != nil {
			return fail(2, err)
		}
	}

	var buf bytes.Buffer
	if err := mobility.ExportNS2(&buf, models); err != nil {
		return fail(2, err)
	}
	var err error
	if *out == "-" {
		_, err = stdout.Write(buf.Bytes())
	} else {
		err = os.WriteFile(*out, buf.Bytes(), 0o644)
	}
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stderr, "wrote %d %s trajectories over %.0f s\n", *n, *model, *horizon)
	return 0
}

// inspect prints a movement script's node count, leg count and last arrival.
func inspect(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	byID, err := mobility.ParseNS2(f)
	if err != nil {
		return err
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(stdout, "%d nodes (ids %d..%d)\n", len(ids), ids[0], ids[len(ids)-1])
	legs := 0
	var maxT float64
	for _, id := range ids {
		ll := byID[id].(mobility.LegLister).Legs()
		legs += len(ll)
		if t := ll[len(ll)-1].T1; t > maxT && t < 1e17 {
			maxT = t
		}
	}
	fmt.Fprintf(stdout, "%d trajectory legs, last arrival at %.1f s\n", legs, maxT)
	return nil
}
