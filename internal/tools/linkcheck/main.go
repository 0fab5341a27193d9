// Command linkcheck fails when the module holds a function that no binary
// links.
//
// It builds every main package of the module with inlining off and the
// linker's dependency dump on (-gcflags=all=-l -ldflags=-dumpdep), for
// linux, darwin and windows, and collects every symbol the linker reached.
// It then lists every function and method declared in a non-test file of
// the module under the linker's spelling (pkg.F, pkg.T.M, pkg.(*T).M), and
// reports each one that no build reached and that allow.txt does not list,
// and each allow.txt entry that names a reached or a missing function.
//
// Run it from the module root:
//
//	go run ./internal/tools/linkcheck
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// goosList is every GOOS some file's build constraint selects; a function
// reached on any of them is live.
var goosList = []string{"linux", "darwin", "windows"}

const allowFile = "internal/tools/linkcheck/allow.txt"

func main() {
	mod := strings.TrimSpace(run(nil, "go", "list", "-m"))
	noWindows := mod + "/bench" // reads syscall.Getrusage, which windows lacks
	var mains []string
	dirs := map[string]string{} // import path → directory
	for _, line := range strings.Split(strings.TrimSpace(run(nil, "go", "list", "-f", "{{.Name}} {{.ImportPath}} {{.Dir}}", "./...")), "\n") {
		f := strings.SplitN(line, " ", 3)
		dirs[f[1]] = f[2]
		if f[0] == "main" {
			mains = append(mains, f[1])
		}
	}

	reached := map[string]bool{}
	for _, goos := range goosList {
		// -o os.DevNull links every main and writes no binary.
		args := []string{"build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep"}
		for _, m := range mains {
			if goos != "windows" || m != noWindows {
				args = append(args, m)
			}
		}
		collect(run([]string{"GOOS=" + goos}, "go", args...), mod, reached)
	}

	allow := readAllow()
	declared := map[string]bool{}
	var bad []string
	for path, dir := range dirs {
		for _, name := range funcs(dir) {
			sym := path + "." + name
			declared[sym] = true
			if !reached[sym] && allow[sym] == "" {
				bad = append(bad, sym+": linked into no binary")
			}
		}
	}
	for sym := range allow {
		if !declared[sym] {
			bad = append(bad, allowFile+": "+sym+": no such function")
		} else if reached[sym] {
			bad = append(bad, allowFile+": "+sym+": linked, remove the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		fmt.Println(b)
	}
	fmt.Printf("linkcheck: %d functions, %d allowlisted, %d mains × %d GOOS, %d problems\n",
		len(declared), len(allow), len(mains), len(goosList), len(bad))
	if len(bad) > 0 {
		os.Exit(1)
	}
}

// collect adds every module symbol named in a -dumpdep dump ("from -> to"
// lines) to reached. The go command heads each binary's output with
// "# importpath"; that binary's "main." symbols are recorded under it.
func collect(dump, mod string, reached map[string]bool) {
	mainPath := ""
	for _, line := range strings.Split(dump, "\n") {
		if p, ok := strings.CutPrefix(line, "# "); ok {
			mainPath = p
			continue
		}
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		for _, s := range []string{from, to} {
			s, _, _ = strings.Cut(s, " <") // drop " <UsedInIface>"
			s = stripTypeArgs(s)
			if rest, ok := strings.CutPrefix(s, "main."); ok {
				s = mainPath + "." + rest
			}
			if strings.HasPrefix(s, mod+".") || strings.HasPrefix(s, mod+"/") {
				reached[s] = true
			}
		}
	}
}

// stripTypeArgs removes every bracketed type argument or parameter list, so
// that pkg.(*T[go.shape.int]).M[go.shape.int64] reads pkg.(*T).M.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcs returns the linker name, without package path, of every function
// and method declared in dir's non-test Go files. init and main are entry
// points, not candidates.
func funcs(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var out []string
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			fail(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			switch {
			case !ok || fd.Name.Name == "_":
			case fd.Recv != nil:
				recv := stripTypeArgs(types.ExprString(fd.Recv.List[0].Type))
				if t, ok := strings.CutPrefix(recv, "*"); ok {
					recv = "(*" + t + ")"
				}
				out = append(out, recv+"."+fd.Name.Name)
			case fd.Name.Name != "init" && (f.Name.Name != "main" || fd.Name.Name != "main"):
				out = append(out, fd.Name.Name)
			}
		}
	}
	return out
}

// readAllow reads allow.txt: one "symbol reason" entry per line, blank lines
// and lines starting with # skipped. Every entry must carry a reason.
func readAllow() map[string]string {
	data, err := os.ReadFile(allowFile)
	if err != nil {
		fail(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" || allow[sym] != "" {
			fail(fmt.Errorf("%s:%d: want one \"symbol reason\" entry per symbol", allowFile, i+1))
		}
		allow[sym] = reason
	}
	return allow
}

// run runs a command with extra environment and returns its combined
// output, exiting on failure.
func run(env []string, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), env...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(out.Bytes())
		fail(fmt.Errorf("%s %s: %v", name, strings.Join(args, " "), err))
	}
	return out.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "linkcheck:", err)
	os.Exit(2)
}
