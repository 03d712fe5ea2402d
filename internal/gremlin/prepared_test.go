package gremlin

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"db2graph/internal/graph"
)

// tokenHitScripts are the scripts the plan-cache tests run on the Figure
// 2(b) graph (FuzzPreparedBinding's seeds) plus scripts with a structural
// literal of every kind: a label, a has() key, limit() and times() counts,
// an as() name.
var tokenHitScripts = []string{
	"g.V('p1').out('hasDisease')",
	"g.V('p2').out('hasDisease').values('conceptName')",
	"g.V('d13', 'd11').out('isa').dedup().count()",
	"g.V().has('patientID', 2).values('name')",
	"g.V().has('patientID', within(1, 2, 3)).out()",
	"g.V().hasId('p1', 'd10').bothE().otherV()",
	"g.V().values('patientID').is(gt(1)).sum()",
	"g.V().constant('c').limit(2)",
	"g.V().has('name', 'quo\\'te').count()",
	"g.V('p1').repeat(__.out()).until(__.has('conceptName', 'diabetes'))",
	"g.V().union(__.out('isa'), __.in('hasDisease')).groupCount()",
	"g.V().where(__.out('isa')).has('conceptName', neq('x'))",
	"g.V('p1').out('hasDisease').limit(1)",
	"g.V('p1').repeat(out()).times(2).values('conceptName')",
	"g.V().hasLabel('patient').as('a').out('hasDisease').select('a').values('name')",
	"g.V('p3', 'p1').outE('hasDisease').count()",
	"g.V().has('patientID', lt(2.5)).values('name')",
}

// renderTokens renders a token stream back to Gremlin text.
func renderTokens(toks []gtok) string {
	var b strings.Builder
	for _, t := range toks {
		if t.kind == gtokEOF {
			break
		}
		if t.kind == gtokString {
			b.WriteByte('\'')
			for i := 0; i < len(t.text); i++ {
				if c := t.text[i]; c == '\'' || c == '\\' {
					b.WriteByte('\\')
				}
				b.WriteByte(t.text[i])
			}
			b.WriteByte('\'')
		} else {
			b.WriteString(t.text)
		}
		b.WriteByte(' ')
	}
	return b.String()
}

// TestTokenHitsMatchParse is the differential behind parse-free plan-cache
// hits. For each script in tokenHitScripts, compiled once into a fresh
// cache: every variant with one parameter literal changed (to ids, names and
// numbers of the graph) must hit the token index, find the very plan the
// full parse finds under the shape key, bind the parameters the parse
// binds, and answer as an uncached source does. Every variant with one
// structural literal changed must miss the token index and still answer
// correctly. (true/false parameters are idents, which the masked stream
// keeps verbatim, so changing one only misses the token index.)
func TestTokenHitsMatchParse(t *testing.T) {
	plain := testGraph(t)
	strPool := []string{"p1", "p2", "p3", "d10", "d11", "d13", "Alice", "diabetes", "x"}
	numPool := []string{"0", "1", "2", "3", "-1", "2.5"}
	for _, script := range tokenHitScripts {
		src := plain.WithPlanCache(NewPlanCache(0))
		if _, err := RunScript(src, script, nil); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		base, err := lexGremlin(nil, script)
		if err != nil {
			t.Fatal(err)
		}
		p := &gparser{toks: base, paramize: true}
		if _, _, err := p.parseChain(src, true); err != nil {
			t.Fatal(err)
		}
		isParam := make([]bool, len(base))
		for _, i := range p.paramToks {
			isParam[i] = true
		}
		hits := 0
		for i, tok := range base {
			var texts []string
			switch {
			case tok.kind == gtokString && isParam[i]:
				texts = strPool
			case tok.kind == gtokNumber && isParam[i]:
				texts = numPool
			case tok.kind == gtokString:
				texts = []string{tok.text + "x"}
			case tok.kind == gtokNumber:
				texts = []string{tok.text + "1"}
			}
			for _, text := range texts {
				vt := append([]gtok(nil), base...)
				vt[i].text = text
				variant := renderTokens(vt)
				if checkTokenVariant(t, src, plain, variant, isParam[i]) {
					hits++
				}
			}
		}
		if len(p.paramToks) > 0 && hits == 0 {
			t.Fatalf("%s: no variant hit the token index", script)
		}
	}
}

// checkTokenVariant checks one variant script against the token index of
// src's cache and the uncached answer; it reports whether the variant hit.
func checkTokenVariant(t *testing.T, src, plain *Source, variant string, wantHit bool) bool {
	t.Helper()
	toks, err := lexGremlin(nil, variant)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	key := planKey{config: graph.ConfigVersionOf(src.Backend), nostrat: src.DisableStrategies, stats: statsEpoch(src)}
	plan, params, hit := src.PlanCache.getTokens(appendMasked(nil, toks), toks, key)
	if hit != wantHit {
		t.Fatalf("%s: token index hit %v, want %v", variant, hit, wantHit)
	}
	if hit {
		p := &gparser{toks: toks, paramize: true}
		if _, _, err := p.parseChain(src, true); err != nil {
			t.Fatalf("%s: token hit on a script that does not parse: %v", variant, err)
		}
		key.shape = renderShape(toks, p.paramToks)
		if want, ok := src.PlanCache.get(key); !ok || want != plan {
			t.Fatalf("%s: token hit found plan %p, the parse finds %p (cached %v)", variant, plan, want, ok)
		}
		if !reflect.DeepEqual(params, p.params) {
			t.Fatalf("%s: token hit bound %v, the parse binds %v", variant, params, p.params)
		}
	}
	got, gotErr := RunScript(src, variant, nil)
	want, wantErr := RunScript(plain, variant, nil)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: cached err %v, uncached err %v", variant, gotErr, wantErr)
	}
	if g, w := render(got), render(want); g != w {
		t.Fatalf("%s diverged\n got: %s\nwant: %s", variant, g, w)
	}
	return hit
}

// TestTokenHitsConcurrent runs literal-varying scripts from eight
// goroutines on one small plan cache: token-index hits, misses, variant
// replacement past maxTokenVariants, LRU eviction and token-index restarts
// race each other (run it under -race), and every answer must equal the
// uncached one.
func TestTokenHitsConcurrent(t *testing.T) {
	plain := testGraph(t)
	var scripts []string
	for _, id := range []string{"p1", "p2", "p3", "d10", "d11", "d13"} {
		scripts = append(scripts,
			"g.V('"+id+"').out('hasDisease')",
			"g.V('"+id+"').out().values('conceptName')",
			"g.V('"+id+"', 'p1').both().dedup().count()",
		)
	}
	for i := 0; i < 2*maxTokenVariants; i++ {
		scripts = append(scripts, "g.V().has('patientID', "+strconv.Itoa(i%4)+").limit("+strconv.Itoa(i+1)+")")
	}
	want := make([]string, len(scripts))
	for i, s := range scripts {
		res, err := RunScript(plain, s, nil)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want[i] = render(res)
	}
	src := plain.WithPlanCache(NewPlanCache(4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := (w*31 + k*7) % len(scripts)
				res, err := RunScript(src, scripts[i], nil)
				if err != nil {
					t.Errorf("%s: %v", scripts[i], err)
					return
				}
				if got := render(res); got != want[i] {
					t.Errorf("%s: got %s, want %s", scripts[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
