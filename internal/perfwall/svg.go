package perfwall

import (
	"fmt"
	"math"
	"strings"
)

// Sparkline renders one metric trajectory as a self-contained SVG: a
// polyline over the points, dots on each sample, min/max/last labels,
// and the point labels along the x axis. Standard library only — run
// folders must be viewable on a machine with nothing but a browser.
func Sparkline(title string, labels []string, values []float64, wantW, wantH int) []byte {
	const pad = 42.0
	w, h := float64(wantW), float64(wantH)
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 180
	}

	// Drop NaNs but keep original indices for x spacing.
	var xs []int
	var ys []float64
	for i, v := range values {
		if !math.IsNaN(v) {
			xs = append(xs, i)
			ys = append(ys, v)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="#ffffff"/>`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="8" y="16" font-family="monospace" font-size="12" fill="#333">%s</text>`+"\n", escape(title))

	if len(ys) == 0 {
		b.WriteString(`<text x="8" y="40" font-family="monospace" font-size="11" fill="#999">no data</text>` + "\n</svg>\n")
		return []byte(b.String())
	}

	lo, hi := ys[0], ys[0]
	for _, v := range ys {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = math.Abs(hi)
		if span == 0 {
			span = 1
		}
		lo -= span / 2
	}
	n := len(values)
	px := func(i int) float64 {
		if n <= 1 {
			return w / 2
		}
		return pad + (w-2*pad)*float64(i)/float64(n-1)
	}
	py := func(v float64) float64 {
		return (h - pad) - (h-2*pad)*(v-lo)/span
	}

	// Gridlines at min and max.
	for _, v := range []float64{lo, lo + span} {
		y := py(v)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd" stroke-width="1"/>`+"\n", pad, y, w-pad, y)
		fmt.Fprintf(&b, `<text x="4" y="%.1f" font-family="monospace" font-size="10" fill="#888">%s</text>`+"\n", y+3, compact(v))
	}

	var pts []string
	for i := range ys {
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(xs[i]), py(ys[i])))
	}
	fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#2563eb" stroke-width="1.5"/>`+"\n", strings.Join(pts, " "))
	for i := range ys {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="#2563eb"/>`+"\n", px(xs[i]), py(ys[i]))
	}
	// Last value, labelled.
	last := len(ys) - 1
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="monospace" font-size="10" fill="#111">%s</text>`+"\n",
		math.Min(px(xs[last])+5, w-pad+2), py(ys[last])-5, compact(ys[last]))

	// X labels, thinned to at most eight.
	step := 1
	if len(labels) > 8 {
		step = (len(labels) + 7) / 8
	}
	for i := 0; i < len(labels) && i < n; i += step {
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="monospace" font-size="9" fill="#888" text-anchor="middle">%s</text>`+"\n",
			px(i), h-pad+16, escape(trim(labels[i], 14)))
	}
	b.WriteString("</svg>\n")
	return []byte(b.String())
}

// compact formats an axis or point label.
func compact(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	case a >= 100 || a == float64(int64(a)):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
