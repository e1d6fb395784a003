package metrics

// NumTracked reports how many ads the collector has seen issued, for the
// reference comparison in package metrics_test.
func (c *Collector) NumTracked() int { return len(c.tracked) }
