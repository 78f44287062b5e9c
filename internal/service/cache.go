package service

import (
	"container/list"
	"sync/atomic"

	"repro/internal/sched"
)

// lruCache is a plain LRU over string keys. It is not safe for
// concurrent use; Service serializes access under its mutex.
type lruCache struct {
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions *atomic.Int64
}

type lruEntry struct {
	key string
	val *sched.Result
}

// newLRU creates a cache holding up to capacity entries. Capacity 0
// disables caching: add is a no-op and get always misses.
func newLRU(capacity int, evictions *atomic.Int64) *lruCache {
	return &lruCache{
		cap:       capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		evictions: evictions,
	}
}

func (c *lruCache) get(key string) (*sched.Result, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) add(key string, val *sched.Result) {
	if c.cap == 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions.Add(1)
	}
}

func (c *lruCache) len() int { return c.ll.Len() }
