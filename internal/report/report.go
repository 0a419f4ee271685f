// Package report renders a campaign of finished scenarios into one
// self-contained HTML file: inline CSS and inline SVG, no scripts, no
// external assets, so the artifact can be mailed around or archived
// next to the CSV output and still open identically years later.
//
// The renderer is deterministic: the same Campaign produces the same
// bytes (slices only, fixed-precision formatting, no clocks), which is
// what lets the serve smoke test golden-pin the structural skeleton.
package report

import (
	"fmt"
	"html"
	"regexp"
	"sort"
	"strings"

	"tlb/internal/sim"
	"tlb/internal/units"
)

// Item is one finished (or failed) scenario of a campaign.
type Item struct {
	// Scenario and Scheme label the run (Result carries them too, but a
	// failed run has no Result).
	Scenario string
	Scheme   string
	// Result is the run's measurements; nil when the run failed.
	Result *sim.Result
	// Err is the run's failure, if any.
	Err error
}

// Campaign is the input of one report: a titled list of runs, rendered
// in input order.
type Campaign struct {
	Title string
	Items []Item
}

// Section ids, in document order. They are the report's structural
// contract: Skeleton extracts them and the serve smoke test pins them.
const (
	IDSummary = "summary"
	IDAFCT    = "afct"
	IDQueues  = "queues"
	IDFaults  = "faults"
)

// palette colors the per-item marks; index is the item's position.
var palette = [...]string{"#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2"}

func color(i int) string { return palette[i%len(palette)] }

// HTML renders the campaign as one self-contained document.
func HTML(c Campaign) []byte {
	var b strings.Builder
	title := c.Title
	if title == "" {
		title = "tlbsim campaign"
	}
	fmt.Fprintf(&b, "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n<title>%s</title>\n", html.EscapeString(title))
	b.WriteString("<style>\n" + css + "</style>\n</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))
	summarySection(&b, c)
	afctSection(&b, c)
	queueSection(&b, c)
	faultSection(&b, c)
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

const css = `body { font-family: ui-monospace, monospace; margin: 2rem auto; max-width: 60rem; color: #1f2937; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; border-bottom: 1px solid #e5e7eb; }
table { border-collapse: collapse; font-size: 0.8rem; width: 100%; }
th, td { text-align: right; padding: 0.25rem 0.6rem; border-bottom: 1px solid #f3f4f6; }
th { color: #6b7280; font-weight: 600; } td.name, th.name { text-align: left; }
td.err { color: #b91c1c; text-align: left; }
svg text { font-family: ui-monospace, monospace; }
p.empty { color: #6b7280; font-style: italic; }
`

// summarySection emits the per-run metrics table.
func summarySection(b *strings.Builder, c Campaign) {
	fmt.Fprintf(b, "<section id=%q>\n<h2>Summary</h2>\n<table>\n", IDSummary)
	b.WriteString("<tr><th class=\"name\">scenario</th><th class=\"name\">scheme</th><th>flows</th><th>afct</th><th>p99 fct</th><th>short afct</th><th>goodput</th><th>util</th><th>drops</th><th>fault drops</th><th>retx</th></tr>\n")
	for _, it := range c.Items {
		fmt.Fprintf(b, "<tr><td class=\"name\">%s</td><td class=\"name\">%s</td>", html.EscapeString(it.Scenario), html.EscapeString(it.Scheme))
		if it.Result == nil {
			msg := "no result"
			if it.Err != nil {
				msg = it.Err.Error()
			}
			fmt.Fprintf(b, "<td class=\"err\" colspan=\"9\">%s</td></tr>\n", html.EscapeString(msg))
			continue
		}
		r := it.Result
		fmt.Fprintf(b, "<td>%d/%d</td>", r.CompletedCount(sim.AllFlows), r.Count(sim.AllFlows))
		fmt.Fprintf(b, "<td>%s</td>", ms(r.AFCT(sim.AllFlows)))
		fmt.Fprintf(b, "<td>%s</td>", ms(r.FCTPercentile(sim.AllFlows, 99)))
		fmt.Fprintf(b, "<td>%s</td>", ms(r.AFCT(sim.ShortFlows)))
		fmt.Fprintf(b, "<td>%.1fMbps</td>", float64(r.Goodput(sim.LongFlows))/float64(units.Mbps))
		fmt.Fprintf(b, "<td>%.1f%%</td>", 100*r.UplinkUtilization())
		fmt.Fprintf(b, "<td>%d</td><td>%d</td><td>%d</td></tr>\n", r.Drops, r.FaultDrops, r.TotalRetransmits(sim.AllFlows))
	}
	b.WriteString("</table>\n</section>\n")
}

// ms formats a time as milliseconds with fixed precision, so renders
// are byte-stable.
func ms(t units.Time) string { return fmt.Sprintf("%.3fms", t.Millis()) }

// afctSection draws horizontal percentile bars (mean, p95, p99) per
// run, scaled to the campaign's largest p99.
func afctSection(b *strings.Builder, c Campaign) {
	fmt.Fprintf(b, "<section id=%q>\n<h2>AFCT percentiles</h2>\n", IDAFCT)
	type row struct {
		label string
		vals  [3]units.Time // mean, p95, p99
		col   string
	}
	var rows []row
	var maxV units.Time
	for i, it := range c.Items {
		if it.Result == nil {
			continue
		}
		r := row{
			label: it.Scenario + "/" + it.Scheme,
			vals: [3]units.Time{
				it.Result.AFCT(sim.AllFlows),
				it.Result.FCTPercentile(sim.AllFlows, 95),
				it.Result.FCTPercentile(sim.AllFlows, 99),
			},
			col: color(i),
		}
		for _, v := range r.vals {
			if v > maxV {
				maxV = v
			}
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 || maxV <= 0 {
		b.WriteString("<p class=\"empty\">no completed runs</p>\n</section>\n")
		return
	}
	const (
		left     = 220.0 // label gutter
		barW     = 360.0
		barH     = 12.0
		gap      = 4.0
		groupGap = 14.0
	)
	names := [3]string{"mean", "p95", "p99"}
	groupH := 3*(barH+gap) + groupGap
	height := float64(len(rows))*groupH + 20
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" role=\"img\">\n", left+barW+80, height, left+barW+80, height)
	y := 10.0
	for _, r := range rows {
		fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.1f\" font-size=\"11\" text-anchor=\"end\">%s</text>\n",
			left-8, y+barH, html.EscapeString(r.label))
		for k, v := range r.vals {
			w := barW * float64(v) / float64(maxV)
			fmt.Fprintf(b, "<rect x=\"%.0f\" y=\"%.1f\" width=\"%.2f\" height=\"%.0f\" fill=\"%s\" fill-opacity=\"%.2f\"/>\n",
				left, y, w, barH, r.col, 1.0-0.3*float64(k))
			fmt.Fprintf(b, "<text x=\"%.2f\" y=\"%.1f\" font-size=\"9\" fill=\"#6b7280\">%s %s</text>\n",
				left+w+4, y+barH-2, names[k], ms(v))
			y += barH + gap
		}
		y += groupGap
	}
	b.WriteString("</svg>\n</section>\n")
}

// queueSection draws, per run, the CDF across uplink ports of the mean
// queue length seen by arriving packets — flat CDFs mean even load
// balance, long tails mean hot uplinks.
func queueSection(b *strings.Builder, c Campaign) {
	fmt.Fprintf(b, "<section id=%q>\n<h2>Uplink queue CDFs</h2>\n", IDQueues)
	type curve struct {
		label string
		xs    []float64 // sorted mean queue length per port
		col   string
	}
	var curves []curve
	var maxX float64
	for i, it := range c.Items {
		if it.Result == nil || len(it.Result.Uplinks) == 0 {
			continue
		}
		var xs []float64
		for _, p := range it.Result.Uplinks {
			arrivals := p.Queue.Enqueued + p.Queue.Dropped
			if arrivals == 0 {
				xs = append(xs, 0)
				continue
			}
			xs = append(xs, float64(p.Queue.SumLenOnArrival)/float64(arrivals))
		}
		sort.Float64s(xs)
		if top := xs[len(xs)-1]; top > maxX {
			maxX = top
		}
		curves = append(curves, curve{label: it.Scenario + "/" + it.Scheme, xs: xs, col: color(i)})
	}
	if len(curves) == 0 {
		b.WriteString("<p class=\"empty\">no completed runs</p>\n</section>\n")
		return
	}
	if maxX <= 0 {
		maxX = 1
	}
	const (
		w      = 480.0
		h      = 220.0
		margin = 40.0
	)
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" role=\"img\">\n",
		w+margin+180, h+2*margin, w+margin+180, h+2*margin)
	// Axes.
	fmt.Fprintf(b, "<line x1=\"%.0f\" y1=\"%.0f\" x2=\"%.0f\" y2=\"%.0f\" stroke=\"#9ca3af\"/>\n", margin, margin+h, margin+w, margin+h)
	fmt.Fprintf(b, "<line x1=\"%.0f\" y1=\"%.0f\" x2=\"%.0f\" y2=\"%.0f\" stroke=\"#9ca3af\"/>\n", margin, margin, margin, margin+h)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"10\" text-anchor=\"middle\">mean queue length on arrival (pkts)</text>\n", margin+w/2, margin+h+28)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"10\" text-anchor=\"end\">P(port &#8804; x)</text>\n", margin-4, margin+8)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"9\" text-anchor=\"middle\">%.2f</text>\n", margin+w, margin+h+14, maxX)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"9\" text-anchor=\"middle\">0</text>\n", margin, margin+h+14)
	for ci, cv := range curves {
		var pts []string
		n := len(cv.xs)
		px := func(x float64) float64 { return margin + w*x/maxX }
		py := func(f float64) float64 { return margin + h*(1-f) }
		pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(cv.xs[0]), py(0)))
		for k, x := range cv.xs {
			// Step CDF: rise at each sorted sample.
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(x), py(float64(k)/float64(n))))
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(x), py(float64(k+1)/float64(n))))
		}
		fmt.Fprintf(b, "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\"/>\n",
			strings.Join(pts, " "), cv.col)
		ly := margin + 14*float64(ci)
		fmt.Fprintf(b, "<rect x=\"%.0f\" y=\"%.1f\" width=\"10\" height=\"10\" fill=\"%s\"/>\n", margin+w+16, ly, cv.col)
		fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.1f\" font-size=\"10\">%s</text>\n", margin+w+30, ly+9, html.EscapeString(cv.label))
	}
	b.WriteString("</svg>\n</section>\n")
}

// faultSection draws one lane per run whose Result lists fault
// events, with a marker at each link event's time.
func faultSection(b *strings.Builder, c Campaign) {
	fmt.Fprintf(b, "<section id=%q>\n<h2>Fault timeline</h2>\n", IDFaults)
	type lane struct {
		label string
		res   *sim.Result
		col   string
	}
	var lanes []lane
	var maxEnd units.Time
	for i, it := range c.Items {
		if it.Result == nil || len(it.Result.Faults) == 0 {
			continue
		}
		// A run reaches only the events at or before its end.
		maxEnd = max(maxEnd, it.Result.EndTime)
		lanes = append(lanes, lane{label: it.Scenario + "/" + it.Scheme, res: it.Result, col: color(i)})
	}
	if len(lanes) == 0 {
		b.WriteString("<p class=\"empty\">no run reached a fault event</p>\n</section>\n")
		return
	}
	const (
		left  = 220.0
		w     = 440.0
		laneH = 26.0
	)
	height := laneH*float64(len(lanes)) + 40
	fmt.Fprintf(b, "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" role=\"img\">\n", left+w+40, height, left+w+40, height)
	for li, ln := range lanes {
		y := 14 + laneH*float64(li)
		fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.1f\" font-size=\"11\" text-anchor=\"end\">%s</text>\n", left-8, y+4, html.EscapeString(ln.label))
		fmt.Fprintf(b, "<line x1=\"%.0f\" y1=\"%.1f\" x2=\"%.0f\" y2=\"%.1f\" stroke=\"#e5e7eb\"/>\n", left, y, left+w, y)
		for _, e := range ln.res.Faults {
			x := left
			if maxEnd > 0 {
				x += w * float64(e.At) / float64(maxEnd)
			}
			fmt.Fprintf(b, "<circle cx=\"%.2f\" cy=\"%.1f\" r=\"4\" fill=\"%s\"><title>%s</title></circle>\n",
				x, y, ln.col, html.EscapeString(e.String()))
		}
	}
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"9\" text-anchor=\"middle\">0</text>\n", left, height-8)
	fmt.Fprintf(b, "<text x=\"%.0f\" y=\"%.0f\" font-size=\"9\" text-anchor=\"middle\">%s</text>\n", left+w, height-8, maxEnd)
	b.WriteString("</svg>\n</section>\n")
}

// skeletonRe matches the structural elements of a report: section ids,
// headings, and the chart/table containers.
var skeletonRe = regexp.MustCompile(`<section id="([a-z]+)">|<(h1|h2|table|svg|p class="empty")[\s>]`)

// Skeleton reduces a rendered report to its structural outline —
// section ids and container elements in document order, one token per
// line — the stable surface the serve smoke test golden-pins without
// freezing pixel content.
func Skeleton(doc []byte) string {
	var out []string
	for _, m := range skeletonRe.FindAllStringSubmatch(string(doc), -1) {
		if m[1] != "" {
			out = append(out, "section#"+m[1])
		} else {
			tag := m[2]
			if tag == `p class="empty"` {
				tag = "p.empty"
			}
			out = append(out, tag)
		}
	}
	return strings.Join(out, "\n") + "\n"
}
