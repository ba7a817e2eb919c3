package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Database is a finite structure D = (A, R₁, …, Rₗ): a universe plus
// named relations.  The same type stores both EDB (database) relations
// and computed IDB relations; the split between the two is a property
// of a program, not of the data.
//
// Like Relation, a Database may be read by any number of goroutines
// concurrently, but mutation requires exclusive access.
type Database struct {
	univ  *Universe
	rels  map[string]*Relation
	order []string // insertion order of relation names
}

// NewDatabase returns an empty database with an empty universe.
func NewDatabase() *Database {
	return &Database{univ: NewUniverse(), rels: make(map[string]*Relation)}
}

// NewDatabaseOn returns an empty database over an existing universe.
func NewDatabaseOn(u *Universe) *Database {
	return &Database{univ: u, rels: make(map[string]*Relation)}
}

// Universe returns the database's universe.
func (db *Database) Universe() *Universe { return db.univ }

// Relation returns the named relation, or nil if absent.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// Ensure returns the named relation, creating an empty one of the given
// arity if absent.  It returns an error if the relation exists with a
// different arity.
func (db *Database) Ensure(name string, arity int) (*Relation, error) {
	if r, ok := db.rels[name]; ok {
		if r.Arity() != arity {
			return nil, fmt.Errorf("relation %s has arity %d, want %d", name, r.Arity(), arity)
		}
		return r, nil
	}
	r := New(arity)
	db.rels[name] = r
	db.order = append(db.order, name)
	return r, nil
}

// MustEnsure is Ensure but panics on arity conflict.  Use it when the
// caller has already validated arities (e.g. against a program).
func (db *Database) MustEnsure(name string, arity int) *Relation {
	r, err := db.Ensure(name, arity)
	if err != nil {
		panic("relation: " + err.Error())
	}
	return r
}

// Set installs rel under name, replacing any previous relation.
func (db *Database) Set(name string, rel *Relation) {
	if _, ok := db.rels[name]; !ok {
		db.order = append(db.order, name)
	}
	db.rels[name] = rel
}

// AddFact interns the constant names and adds the tuple to the named
// relation, creating the relation on first use.
func (db *Database) AddFact(pred string, consts ...string) error {
	r, err := db.Ensure(pred, len(consts))
	if err != nil {
		return err
	}
	t := make(Tuple, len(consts))
	for i, c := range consts {
		t[i] = db.univ.Intern(c)
	}
	r.Add(t)
	return nil
}

// AddConstant interns a constant into the universe without adding any
// fact.  Useful for padding the active domain (e.g. the binary domain
// {0,1} of Theorem 4).
func (db *Database) AddConstant(name string) int { return db.univ.Intern(name) }

// Names returns the relation names in insertion order.
func (db *Database) Names() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// SortedNames returns the relation names sorted lexicographically.
func (db *Database) SortedNames() []string {
	out := db.Names()
	sort.Strings(out)
	return out
}

// Clone returns a deep copy sharing nothing with db.
func (db *Database) Clone() *Database {
	c := &Database{
		univ:  db.univ.Clone(),
		rels:  make(map[string]*Relation, len(db.rels)),
		order: make([]string, len(db.order)),
	}
	copy(c.order, db.order)
	for name, r := range db.rels {
		c.rels[name] = r.Clone()
	}
	return c
}

// String renders the database deterministically, one relation per line.
func (db *Database) String() string {
	var b strings.Builder
	for _, name := range db.SortedNames() {
		fmt.Fprintf(&b, "%s/%d = %s\n", name, db.rels[name].Arity(), db.rels[name].Format(db.univ))
	}
	return b.String()
}
